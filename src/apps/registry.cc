#include "apps/registry.hh"

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

[[noreturn]] void
throwUnknownApp(const std::string& name)
{
    std::string msg = "unknown app: " + name + "; valid names:";
    for (const std::string& known : listApps())
        msg += " " + known;
    throw std::invalid_argument(msg);
}

/// `size` for an app whose config holds it in an int: a larger size
/// would wrap to another (or a negative) problem.
int
intSize(const std::string& name, std::uint64_t size)
{
    if (size > INT_MAX)
        throw std::invalid_argument(name + ": size " +
                                    std::to_string(size) + " exceeds " +
                                    std::to_string(INT_MAX));
    return static_cast<int>(size);
}

} // namespace

std::uint64_t
basicSize(const std::string& name)
{
    if (name.rfind("fft", 0) == 0)
        return 1u << 20; // 2^20 points (Table 2)
    if (name.rfind("ocean", 0) == 0)
        return 1026; // 1026x1026 grids
    if (name.rfind("radix", 0) == 0 || name.rfind("samplesort", 0) == 0)
        return 1u << 22; // 4M keys
    if (name.rfind("barnes", 0) == 0)
        return 16384; // 16K bodies
    if (name.rfind("water-nsq", 0) == 0)
        return 4096; // molecules
    if (name.rfind("water-spatial", 0) == 0)
        return 4096;
    if (name.rfind("raytrace", 0) == 0)
        return 128; // 128x128 image (ball)
    if (name.rfind("volrend", 0) == 0)
        return 256; // 256^3 head
    if (name.rfind("shearwarp", 0) == 0)
        return 256; // 256^3 head
    if (name.rfind("infer", 0) == 0)
        return 422; // CPCS-422
    if (name.rfind("protein", 0) == 0)
        return 16; // helix16
    throwUnknownApp(name);
}

std::string
sizeUnit(const std::string& name)
{
    if (name.rfind("fft", 0) == 0)
        return "points";
    if (name.rfind("ocean", 0) == 0)
        return "grid";
    if (name.rfind("radix", 0) == 0 || name.rfind("samplesort", 0) == 0)
        return "keys";
    if (name.rfind("barnes", 0) == 0)
        return "bodies";
    if (name.rfind("water", 0) == 0)
        return "molecules";
    if (name.rfind("raytrace", 0) == 0)
        return "image side";
    if (name.rfind("volrend", 0) == 0 || name.rfind("shearwarp", 0) == 0)
        return "volume side";
    if (name.rfind("infer", 0) == 0)
        return "cliques";
    if (name.rfind("protein", 0) == 0)
        return "helix leaves";
    return "size";
}

const std::vector<std::string>&
listApps()
{
    static const std::vector<std::string> names = {
        "barnes",       "barnes-mergetree",
        "barnes-spatial",
        "fft",          "fft-implicit",
        "fft-nostagger", "fft-prefetch",
        "infer",        "infer-static",
        "ocean",        "ocean-rowwise",
        "protein",      "protein-noregroup",
        "radix",        "radix-prefetch",
        "raytrace",     "raytrace-nostatslock",
        "samplesort",   "samplesort-prefetch",
        "shearwarp",    "shearwarp-locality",
        "volrend",      "volrend-balanced",
        "water-nsq",    "water-nsq-interchanged",
        "water-spatial",
    };
    return names;
}

AppPtr
tryMakeApp(const std::string& name, std::uint64_t size)
{
    for (const std::string& known : listApps())
        if (known == name)
            return makeApp(name, size);
    return nullptr;
}

AppPtr
makeApp(const std::string& name, std::uint64_t size)
{
    if (size == 0)
        size = basicSize(name);

    if (name == "fft" || name == "fft-nostagger" ||
        name == "fft-prefetch" || name == "fft-implicit") {
        FftConfig c;
        c.logPoints = std::bit_width(size) - 1;
        if (c.logPoints % 2)
            ++c.logPoints;
        c.stagger = name != "fft-nostagger";
        c.prefetch = name == "fft-prefetch";
        c.implicitTranspose = name == "fft-implicit";
        return std::make_unique<FftApp>(c);
    }
    if (name == "ocean" || name == "ocean-rowwise") {
        OceanConfig c;
        c.n = size;
        c.rowwise = name == "ocean-rowwise";
        return std::make_unique<OceanApp>(c);
    }
    if (name == "radix" || name == "radix-prefetch") {
        RadixConfig c;
        c.numKeys = size;
        c.prefetchHist = name == "radix-prefetch";
        return std::make_unique<RadixApp>(c);
    }
    if (name == "samplesort" || name == "samplesort-prefetch") {
        SampleSortConfig c;
        c.numKeys = size;
        c.prefetchCopy = name == "samplesort-prefetch";
        return std::make_unique<SampleSortApp>(c);
    }
    if (name.rfind("barnes", 0) == 0) {
        BarnesConfig c;
        c.numBodies = size;
        c.variant = name == "barnes-mergetree" ? BarnesVariant::MergeTree
                    : name == "barnes-spatial" ? BarnesVariant::Spatial
                                               : BarnesVariant::Original;
        return std::make_unique<BarnesApp>(c);
    }
    if (name == "water-nsq" || name == "water-nsq-interchanged") {
        WaterNsqConfig c;
        c.numMols = size;
        c.interchanged = name == "water-nsq-interchanged";
        return std::make_unique<WaterNsqApp>(c);
    }
    if (name == "water-spatial") {
        WaterSpConfig c;
        c.numMols = size;
        return std::make_unique<WaterSpApp>(c);
    }
    if (name == "raytrace" || name == "raytrace-nostatslock") {
        RaytraceConfig c;
        c.imageSide = intSize(name, size);
        c.statsLock = name == "raytrace";
        return std::make_unique<RaytraceApp>(c);
    }
    if (name == "volrend" || name == "volrend-balanced") {
        VolrendConfig c;
        c.volDim = intSize(name, size);
        c.balancedInit = name == "volrend-balanced";
        return std::make_unique<VolrendApp>(c);
    }
    if (name == "shearwarp" || name == "shearwarp-locality") {
        ShearWarpConfig c;
        c.volDim = intSize(name, size);
        c.restructured = name == "shearwarp-locality";
        return std::make_unique<ShearWarpApp>(c);
    }
    if (name == "infer" || name == "infer-static") {
        InferConfig c;
        c.numCliques = intSize(name, size);
        c.staticWithinClique = name == "infer-static";
        return std::make_unique<InferApp>(c);
    }
    if (name == "protein" || name == "protein-noregroup") {
        ProteinConfig c;
        c.leaves = intSize(name, size);
        c.regroup = name == "protein";
        return std::make_unique<ProteinApp>(c);
    }
    throwUnknownApp(name);
}

bool
timingInvariant(const std::string& name)
{
    // Task-queue apps: TaskQueues::fullestVictim picks steal victims by
    // scanning queue occupancy, which depends on who ran when; the
    // dequeue order itself is contention-dependent. barnes-mergetree:
    // each process's merge work scales with its arrival rank at the
    // merge lock. All other apps partition work statically (by process
    // id and problem size), so their op streams are timing-invariant.
    return !(name == "infer" || name == "infer-static" ||
             name == "raytrace" || name == "raytrace-nostatslock" ||
             name == "volrend" || name == "volrend-balanced" ||
             name == "shearwarp" || name == "barnes-mergetree");
}

const std::vector<std::string>&
originalApps()
{
    static const std::vector<std::string> names = {
        "barnes", "infer",       "fft",     "ocean",
        "protein", "radix",      "raytrace", "shearwarp",
        "volrend", "water-nsq",  "water-spatial",
    };
    return names;
}

std::string
restructuredVariant(const std::string& original)
{
    if (original == "barnes")
        return "barnes-spatial";
    if (original == "radix")
        return "samplesort";
    if (original == "water-nsq")
        return "water-nsq-interchanged";
    if (original == "shearwarp")
        return "shearwarp-locality";
    if (original == "infer")
        return "infer-static";
    if (original == "raytrace")
        return "raytrace-nostatslock";
    if (original == "volrend")
        return "volrend-balanced";
    if (original == "ocean")
        return "ocean-rowwise";
    return "";
}

} // namespace ccnuma::apps
