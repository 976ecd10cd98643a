/**
 * @file
 * Integration tests: every application (and variant) runs to
 * completion on small machines, is deterministic, and exhibits the key
 * qualitative behaviours the study depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/registry.hh"
#include "core/study.hh"

using namespace ccnuma;

namespace {

const std::vector<std::string>&
allVariants()
{
    static const std::vector<std::string> v = {
        "fft",
        "fft-nostagger",
        "fft-prefetch",
        "fft-implicit",
        "ocean",
        "ocean-rowwise",
        "radix",
        "radix-prefetch",
        "samplesort",
        "samplesort-prefetch",
        "barnes",
        "barnes-mergetree",
        "barnes-spatial",
        "water-nsq",
        "water-nsq-interchanged",
        "water-spatial",
        "raytrace",
        "raytrace-nostatslock",
        "volrend",
        "volrend-balanced",
        "shearwarp",
        "shearwarp-locality",
        "infer",
        "infer-static",
        "protein",
        "protein-noregroup",
    };
    return v;
}

} // namespace

TEST(Registry, ListAppsCoversEveryVariant)
{
    const auto& listed = apps::listApps();
    for (const std::string& name : allVariants())
        EXPECT_NE(std::find(listed.begin(), listed.end(), name),
                  listed.end())
            << name;
    for (const std::string& name : apps::originalApps())
        EXPECT_NE(std::find(listed.begin(), listed.end(), name),
                  listed.end())
            << name;
}

TEST(Registry, TryMakeAppBuildsEveryListedName)
{
    for (const std::string& name : apps::listApps()) {
        const apps::AppPtr app =
            apps::tryMakeApp(name, apps::goldenSize(name));
        EXPECT_NE(app, nullptr) << name;
    }
}

TEST(Registry, TryMakeAppReturnsNullForUnknownNames)
{
    EXPECT_EQ(apps::tryMakeApp("no-such-app"), nullptr);
    EXPECT_EQ(apps::tryMakeApp(""), nullptr);
    EXPECT_EQ(apps::tryMakeApp("fft-bogus"), nullptr);
}

TEST(Registry, MakeAppErrorListsValidNames)
{
    try {
        apps::makeApp("no-such-app");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-app"), std::string::npos);
        EXPECT_NE(msg.find("fft"), std::string::npos);
        EXPECT_NE(msg.find("water-spatial"), std::string::npos);
    }
}

TEST(Registry, MakeAppRejectsSizesAnIntCannotHold)
{
    // These configs hold the size in an int: 2^32 + 64 would wrap to
    // 64 and 2^31 to a negative side.
    const std::uint64_t wraps[] = {std::uint64_t{1} << 31,
                                   (std::uint64_t{1} << 32) + 64};
    for (const char* name :
         {"raytrace", "raytrace-nostatslock", "volrend",
          "volrend-balanced", "shearwarp", "shearwarp-locality", "infer",
          "infer-static", "protein", "protein-noregroup"}) {
        for (const std::uint64_t size : wraps)
            EXPECT_THROW(apps::makeApp(name, size), std::invalid_argument)
                << name << " size " << size;
        EXPECT_NE(apps::makeApp(name, 64), nullptr) << name;
    }
}

class AppRuns : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AppRuns, CompletesOnEightProcs)
{
    sim::MachineConfig cfg;
    cfg.numProcs = 8;
    auto app = apps::makeApp(GetParam(), apps::goldenSize(GetParam()));
    const sim::RunResult r = core::runApp(cfg, *app);
    EXPECT_GT(r.time, 0u);
    // Every processor did *something* (ran to completion).
    for (const auto& ps : r.procs)
        EXPECT_GT(ps.t.total(), 0u);
}

TEST_P(AppRuns, CompletesOnOneProc)
{
    const sim::MachineConfig cfg = sim::MachineConfig::uniprocessor();
    auto app = apps::makeApp(GetParam(), apps::goldenSize(GetParam()));
    const sim::RunResult r = core::runApp(cfg, *app);
    EXPECT_GT(r.procs[0].t.busy, 0u);
}

TEST_P(AppRuns, DeterministicTiming)
{
    auto once = [&] {
        sim::MachineConfig cfg;
        cfg.numProcs = 4;
        auto app = apps::makeApp(GetParam(), apps::goldenSize(GetParam()));
        return core::runApp(cfg, *app).time;
    };
    EXPECT_EQ(once(), once());
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppRuns,
                         ::testing::ValuesIn(allVariants()),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (auto& ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });

TEST(AppBehaviour, SpeedupIsReasonableAtEightProcs)
{
    // Compute-dominated apps should get decent speedups at small P.
    for (const char* name : {"water-nsq", "barnes", "raytrace"}) {
        const sim::MachineConfig cfg = sim::MachineConfig::origin2000(8);
        const auto mres = core::measure(
            cfg, [&] { return apps::makeApp(name, apps::goldenSize(name)); });
        EXPECT_GT(mres.speedup(), 4.0) << name;
        EXPECT_LT(mres.speedup(), 16.0) << name;
    }
}

TEST(AppBehaviour, WaterNsqInterchangeHelpsWhenCacheTooSmall)
{
    // With a cache far smaller than the partner set, the original loop
    // order thrashes and the interchange wins big (Fig 10 d-e).
    sim::MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.cacheBytes = 32u << 10;
    auto orig = apps::makeApp("water-nsq", 2048);
    auto restr = apps::makeApp("water-nsq-interchanged", 2048);
    const auto r0 = core::runApp(cfg, *orig);
    const auto r1 = core::runApp(cfg, *restr);
    EXPECT_LT(r1.time, r0.time / 2);
}

TEST(AppBehaviour, RegistryRejectsUnknown)
{
    // Names match exactly: a registered name's prefix or extension is
    // unknown too.
    EXPECT_THROW(apps::makeApp("nosuchapp", 1), std::invalid_argument);
    EXPECT_THROW(apps::makeApp("barnesfoo"), std::invalid_argument);
    EXPECT_EQ(apps::tryMakeApp("barnesfoo"), nullptr);
    EXPECT_THROW(apps::basicSize("nosuchapp"), std::invalid_argument);
    EXPECT_THROW(apps::basicSize("fftx"), std::invalid_argument);
    EXPECT_THROW(apps::sizeUnit("waterfall"), std::invalid_argument);
    EXPECT_THROW(apps::goldenSize("nosuch"), std::invalid_argument);
    EXPECT_THROW(apps::timingInvariant("nosuch"), std::invalid_argument);
    EXPECT_THROW(apps::restructuredVariant("nosuch"),
                 std::invalid_argument);
    EXPECT_EQ(apps::restructuredVariant("fft"), "");
}

TEST(Registry, EveryAppReportsItsRegisteredName)
{
    for (const std::string& name : apps::listApps())
        EXPECT_EQ(apps::makeApp(name, apps::goldenSize(name))->name(),
                  name);
}

TEST(Registry, OrdersAreStable)
{
    const auto& listed = apps::listApps();
    EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
    const std::vector<std::string> fig2 = {
        "barnes",   "infer",     "fft",       "ocean",
        "protein",  "radix",     "raytrace",  "shearwarp",
        "volrend",  "water-nsq", "water-spatial"};
    EXPECT_EQ(apps::originalApps(), fig2);
}

TEST(AppBehaviour, BasicSizesMatchTable2)
{
    EXPECT_EQ(apps::basicSize("fft"), 1u << 20);
    EXPECT_EQ(apps::basicSize("ocean"), 1026u);
    EXPECT_EQ(apps::basicSize("radix"), 1u << 22);
    EXPECT_EQ(apps::basicSize("barnes"), 16384u);
    EXPECT_EQ(apps::basicSize("water-nsq"), 4096u);
    EXPECT_EQ(apps::basicSize("raytrace"), 128u);
    EXPECT_EQ(apps::basicSize("volrend"), 256u);
    EXPECT_EQ(apps::basicSize("infer"), 422u);
    EXPECT_EQ(apps::basicSize("protein"), 16u);
}

TEST(AppBehaviour, EveryOriginalHasWorkingRestructuredVariant)
{
    for (const auto& name : apps::originalApps()) {
        const std::string restr = apps::restructuredVariant(name);
        if (restr.empty())
            continue;
        sim::MachineConfig cfg;
        cfg.numProcs = 4;
        auto app = apps::makeApp(restr, apps::goldenSize(restr));
        EXPECT_GT(core::runApp(cfg, *app).time, 0u) << restr;
    }
}
