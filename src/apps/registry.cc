#include "apps/registry.hh"

#include <algorithm>
#include <bit>
#include <climits>
#include <stdexcept>
#include <string>

#include "apps/barnes_app.hh"
#include "apps/fft_app.hh"
#include "apps/infer_app.hh"
#include "apps/ocean_app.hh"
#include "apps/protein_app.hh"
#include "apps/radix_app.hh"
#include "apps/raytrace_app.hh"
#include "apps/samplesort_app.hh"
#include "apps/shearwarp_app.hh"
#include "apps/volrend_app.hh"
#include "apps/water_app.hh"

namespace ccnuma::apps {

namespace {

using Size = std::uint64_t;

/// Size facts shared by an application and all of its variants (and
/// by apps whose sizes coincide: volrend and shearwarp, the waters).
struct Family {
    Size basic;       ///< Basic size: Table 2, scaled per DESIGN.md.
    Size golden;      ///< Golden-metrics size (tests, perfbench grids).
    const char* unit; ///< Unit of the size parameter.
    bool intSized;    ///< The config holds the size in an int.
};

constexpr Family kBarnes{16384, 2048, "bodies", false};  // 16K bodies
constexpr Family kInfer{422, 64, "cliques", true};       // CPCS-422
constexpr Family kFft{1u << 20, 1u << 14, "points", false};
constexpr Family kOcean{1026, 130, "grid", false}; // 1026x1026 grids
constexpr Family kProtein{16, 8, "helix leaves", true}; // helix16
constexpr Family kSort{1u << 22, 1u << 16, "keys", false}; // 4M keys
constexpr Family kRaytrace{128, 32, "image side", true}; // ball 128^2
constexpr Family kVolume{256, 32, "volume side", true};  // 256^3 head
constexpr Family kWater{4096, 512, "molecules", false};

/// How a row's work is distributed. Dynamic: everything built on
/// TaskQueues (fullestVictim picks steal victims by queue occupancy,
/// which depends on who ran when), and barnes-mergetree (each
/// process's merge work scales with its arrival rank at the merge
/// lock). Static apps partition by process id and problem size, so
/// their op streams are timing-invariant.
enum Work { Static, Dynamic };

/// One registered name.
struct Row {
    const char* name;
    const Family* family;
    /// nullptr for a variant; for one of the paper's originals, its
    /// restructured variant (Fig. 9), or "" if it has none.
    const char* restructured;
    Work work;
    AppPtr (*make)(Size size); ///< `size` resolved and range-checked.
};

template <class A, class C>
AppPtr
make(const C& c)
{
    return std::make_unique<A>(c);
}

/// FFT's log2 size, rounded up to even (a square sqrt(n) matrix).
int
fftLog(Size n)
{
    const int log = std::bit_width(n) - 1;
    return log + log % 2;
}

/// The size of an int-sized family (range-checked by makeApp).
int
narrow(Size n)
{
    return static_cast<int>(n);
}

/// Every registered name. Originals are in Fig. 2's row order, each
/// followed by its variants; listApps() sorts.
constexpr Row kRows[] = {
    {"barnes", &kBarnes, "barnes-spatial", Static,
     [](Size n) { return make<BarnesApp>(BarnesConfig{.numBodies = n}); }},
    {"barnes-mergetree", &kBarnes, nullptr, Dynamic, [](Size n) {
         return make<BarnesApp>(BarnesConfig{
             .numBodies = n, .variant = BarnesVariant::MergeTree});
     }},
    {"barnes-spatial", &kBarnes, nullptr, Static, [](Size n) {
         return make<BarnesApp>(BarnesConfig{
             .numBodies = n, .variant = BarnesVariant::Spatial});
     }},
    {"infer", &kInfer, "infer-static", Dynamic, [](Size n) {
         return make<InferApp>(InferConfig{.numCliques = narrow(n)});
     }},
    {"infer-static", &kInfer, nullptr, Dynamic, [](Size n) {
         return make<InferApp>(InferConfig{.numCliques = narrow(n),
                                           .staticWithinClique = true});
     }},
    {"fft", &kFft, "", Static,
     [](Size n) { return make<FftApp>(FftConfig{.logPoints = fftLog(n)}); }},
    {"fft-implicit", &kFft, nullptr, Static, [](Size n) {
         return make<FftApp>(FftConfig{.logPoints = fftLog(n),
                                       .implicitTranspose = true});
     }},
    {"fft-nostagger", &kFft, nullptr, Static, [](Size n) {
         return make<FftApp>(
             FftConfig{.logPoints = fftLog(n), .stagger = false});
     }},
    {"fft-prefetch", &kFft, nullptr, Static, [](Size n) {
         return make<FftApp>(
             FftConfig{.logPoints = fftLog(n), .prefetch = true});
     }},
    {"ocean", &kOcean, "ocean-rowwise", Static,
     [](Size n) { return make<OceanApp>(OceanConfig{.n = n}); }},
    {"ocean-rowwise", &kOcean, nullptr, Static, [](Size n) {
         return make<OceanApp>(OceanConfig{.n = n, .rowwise = true});
     }},
    {"protein", &kProtein, "", Static, [](Size n) {
         return make<ProteinApp>(ProteinConfig{.leaves = narrow(n)});
     }},
    {"protein-noregroup", &kProtein, nullptr, Static, [](Size n) {
         return make<ProteinApp>(
             ProteinConfig{.leaves = narrow(n), .regroup = false});
     }},
    {"radix", &kSort, "samplesort", Static,
     [](Size n) { return make<RadixApp>(RadixConfig{.numKeys = n}); }},
    {"radix-prefetch", &kSort, nullptr, Static, [](Size n) {
         return make<RadixApp>(
             RadixConfig{.numKeys = n, .prefetchHist = true});
     }},
    {"samplesort", &kSort, nullptr, Static, [](Size n) {
         return make<SampleSortApp>(SampleSortConfig{.numKeys = n});
     }},
    {"samplesort-prefetch", &kSort, nullptr, Static, [](Size n) {
         return make<SampleSortApp>(
             SampleSortConfig{.numKeys = n, .prefetchCopy = true});
     }},
    {"raytrace", &kRaytrace, "raytrace-nostatslock", Dynamic, [](Size n) {
         return make<RaytraceApp>(RaytraceConfig{.imageSide = narrow(n)});
     }},
    {"raytrace-nostatslock", &kRaytrace, nullptr, Dynamic, [](Size n) {
         return make<RaytraceApp>(
             RaytraceConfig{.imageSide = narrow(n), .statsLock = false});
     }},
    {"shearwarp", &kVolume, "shearwarp-locality", Dynamic, [](Size n) {
         return make<ShearWarpApp>(ShearWarpConfig{.volDim = narrow(n)});
     }},
    {"shearwarp-locality", &kVolume, nullptr, Static, [](Size n) {
         return make<ShearWarpApp>(
             ShearWarpConfig{.volDim = narrow(n), .restructured = true});
     }},
    {"volrend", &kVolume, "volrend-balanced", Dynamic, [](Size n) {
         return make<VolrendApp>(VolrendConfig{.volDim = narrow(n)});
     }},
    {"volrend-balanced", &kVolume, nullptr, Dynamic, [](Size n) {
         return make<VolrendApp>(
             VolrendConfig{.volDim = narrow(n), .balancedInit = true});
     }},
    {"water-nsq", &kWater, "water-nsq-interchanged", Static,
     [](Size n) { return make<WaterNsqApp>(WaterNsqConfig{.numMols = n}); }},
    {"water-nsq-interchanged", &kWater, nullptr, Static, [](Size n) {
         return make<WaterNsqApp>(
             WaterNsqConfig{.numMols = n, .interchanged = true});
     }},
    {"water-spatial", &kWater, "", Static,
     [](Size n) { return make<WaterSpApp>(WaterSpConfig{.numMols = n}); }},
};

const Row*
find(const std::string& name)
{
    for (const Row& r : kRows)
        if (name == r.name)
            return &r;
    return nullptr;
}

/// The row named exactly `name`.
/// @throws std::invalid_argument listing every valid name.
const Row&
row(const std::string& name)
{
    if (const Row* r = find(name))
        return *r;
    std::string msg = "unknown app: " + name + "; valid names:";
    for (const std::string& known : listApps())
        msg += " " + known;
    throw std::invalid_argument(msg);
}

std::vector<std::string>
names(bool originalsOnly)
{
    std::vector<std::string> out;
    for (const Row& r : kRows)
        if (!originalsOnly || r.restructured)
            out.emplace_back(r.name);
    return out;
}

} // namespace

std::uint64_t
basicSize(const std::string& name)
{
    return row(name).family->basic;
}

std::uint64_t
goldenSize(const std::string& name)
{
    return row(name).family->golden;
}

std::string
sizeUnit(const std::string& name)
{
    return row(name).family->unit;
}

const std::vector<std::string>&
listApps()
{
    static const std::vector<std::string> sorted = [] {
        std::vector<std::string> v = names(false);
        std::sort(v.begin(), v.end());
        return v;
    }();
    return sorted;
}

AppPtr
tryMakeApp(const std::string& name, std::uint64_t size)
{
    return find(name) ? makeApp(name, size) : nullptr;
}

AppPtr
makeApp(const std::string& name, std::uint64_t size)
{
    const Row& r = row(name);
    if (size == 0)
        size = r.family->basic;
    // An int-sized config would wrap a larger size to another (or a
    // negative) problem.
    if (r.family->intSized && size > INT_MAX)
        throw std::invalid_argument(name + ": size " +
                                    std::to_string(size) + " exceeds " +
                                    std::to_string(INT_MAX));
    return r.make(size);
}

bool
timingInvariant(const std::string& name)
{
    return row(name).work == Static;
}

const std::vector<std::string>&
originalApps()
{
    static const std::vector<std::string> originals = names(true);
    return originals;
}

std::string
restructuredVariant(const std::string& original)
{
    const char* variant = row(original).restructured;
    return variant ? variant : "";
}

} // namespace ccnuma::apps
