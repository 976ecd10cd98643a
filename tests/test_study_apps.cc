/**
 * @file
 * App-level differential suite for the StudyRunner worker pool: every
 * registered application variant, run as a grid of cells on several
 * worker threads at once, must produce metrics bit-identical to plain
 * core::measure calls, which run outside any StudyRunner and so build
 * every input privately.
 *
 * Each cell owns its Machine and App, but inside a StudyRunner the
 * cells and their baselines share each app's P-independent input
 * (apps::sharedInput). Any state an app shares between instances
 * beyond that immutable input (a static table, a mutated input, an
 * RNG) shows up here as a result that depends on which cells ran
 * alongside it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/barnes_app.hh"
#include "apps/input_cache.hh"
#include "apps/registry.hh"
#include "bit_identity.hh"
#include "core/study_runner.hh"
#include "sim/config.hh"

using namespace ccnuma;

namespace {

core::AppFactory
goldenFactory(const std::string& name)
{
    return [name] { return apps::makeApp(name, apps::goldenSize(name)); };
}

/// `name` at goldenSize() on each configuration in `cfgs`, one cell
/// apiece, each against its own baseline.
core::StudyPlan
appGrid(const std::string& name,
        const std::vector<sim::MachineConfig>& cfgs)
{
    core::StudyPlan plan;
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        plan.add(name + " cell " + std::to_string(i), cfgs[i],
                 goldenFactory(name));
    return plan;
}

/// The plan's cells as plain measure() calls: no StudyRunner, so no
/// input cache, so every setup builds its input privately.
std::vector<core::Measurement>
measurePrivately(const core::StudyPlan& plan)
{
    EXPECT_EQ(apps::InputCache::current(), nullptr);
    std::vector<core::Measurement> out;
    for (const core::RunSpec& spec : plan.specs())
        out.push_back(core::measure(spec.cfg, spec.factory));
    return out;
}

/// Run `plan` on `jobs` workers; every cell must succeed.
core::StudyResult
runOk(const core::StudyPlan& plan, int jobs)
{
    core::StudyRunner runner({.jobs = jobs});
    core::StudyResult res = runner.run(plan);
    EXPECT_EQ(res.failures(), 0u);
    for (const core::RunOutcome& r : res.runs)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    return res;
}

void
expectSameGrid(const std::vector<core::Measurement>& want,
               const core::StudyResult& got, const std::string& what)
{
    ASSERT_EQ(want.size(), got.runs.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const std::string cell = what + " " + got.runs[i].name;
        EXPECT_EQ(want[i].seqTime, got.runs[i].m.seqTime) << cell;
        testutil::expectIdentical(want[i].par, got.runs[i].m.par, cell);
    }
}

/// Apps whose setup reads a shared input.
bool
sharesInput(const std::string& name)
{
    for (const char* prefix : {"barnes", "volrend", "shearwarp", "raytrace"})
        if (name.rfind(prefix, 0) == 0)
            return true;
    return false;
}

/// A shared-input app builds its input once per plan and every other
/// setup (cell or baseline) reuses it; the rest never touch the cache.
void
expectInputsShared(const std::string& name, const core::StudyResult& res)
{
    const std::uint64_t setups = 2 * res.runs.size();
    EXPECT_EQ(res.inputsBuilt, sharesInput(name) ? 1u : 0u) << name;
    EXPECT_EQ(res.inputsReused, sharesInput(name) ? setups - 1 : 0u)
        << name;
}

sim::MachineConfig
withProtocol(int procs, const char* protocol)
{
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(procs);
    EXPECT_TRUE(cfg.protocol.parse(protocol)) << protocol;
    return cfg;
}

apps::AppPtr
barnes(apps::BarnesVariant variant, std::uint64_t seed)
{
    apps::BarnesConfig c;
    c.numBodies = apps::goldenSize("barnes");
    c.variant = variant;
    c.seed = seed;
    return std::make_unique<apps::BarnesApp>(c);
}

} // namespace

class ParallelAppDiff : public ::testing::TestWithParam<std::string> {};

/// Every app, default protocol, four machine sizes; worker counts
/// {1, 2, 4, auto} against private measure() calls.
TEST_P(ParallelAppDiff, BitIdenticalAcrossWorkerCounts)
{
    const std::string name = GetParam();
    std::vector<sim::MachineConfig> cfgs;
    for (const int procs : {1, 2, 4, 8})
        cfgs.push_back(withProtocol(procs, "mesi"));
    const core::StudyPlan plan = appGrid(name, cfgs);

    const std::vector<core::Measurement> oracle = measurePrivately(plan);
    for (const int jobs : {1, 2, 4, 0}) {
        const core::StudyResult res = runOk(plan, jobs);
        expectSameGrid(oracle, res, name + " jobs=" + std::to_string(jobs));
        expectInputsShared(name, res);
    }
}

/// Every app under every protocol at once, one cell per protocol.
TEST_P(ParallelAppDiff, BitIdenticalUnderEveryProtocol)
{
    const std::string name = GetParam();
    std::vector<sim::MachineConfig> cfgs;
    for (const char* protocol : {"mesi", "moesi", "dragon"})
        cfgs.push_back(withProtocol(8, protocol));
    const core::StudyPlan plan = appGrid(name, cfgs);

    const core::StudyResult res = runOk(plan, 3);
    expectSameGrid(measurePrivately(plan), res, name + " jobs=3");
    expectInputsShared(name, res);
}

/// The three barnes variants at one size share one input; barnes at
/// another seed is another problem, with its own input and result.
TEST(SharedInputs, BarnesVariantsShareOneInputPerSeed)
{
    using apps::BarnesVariant;
    core::StudyPlan plan;
    const sim::MachineConfig cfg = withProtocol(8, "mesi");
    plan.add("barnes", cfg,
             [] { return barnes(BarnesVariant::Original, 17); });
    plan.add("barnes-mergetree", cfg,
             [] { return barnes(BarnesVariant::MergeTree, 17); });
    plan.add("barnes-spatial", cfg,
             [] { return barnes(BarnesVariant::Spatial, 17); });
    plan.add("barnes seed 18", cfg,
             [] { return barnes(BarnesVariant::Original, 18); });

    const std::vector<core::Measurement> oracle = measurePrivately(plan);
    for (const int jobs : {1, 4}) {
        const core::StudyResult res = runOk(plan, jobs);
        const std::string what = "jobs=" + std::to_string(jobs);
        expectSameGrid(oracle, res, what);
        EXPECT_EQ(res.inputsBuilt, 2u) << what << ": one per seed";
        EXPECT_EQ(res.inputsReused, 2 * plan.size() - 2) << what;
    }
    EXPECT_NE(oracle[3].parTime, oracle[0].parTime)
        << "another seed is another problem";
    EXPECT_NE(oracle[3].seqTime, oracle[0].seqTime);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, ParallelAppDiff,
    ::testing::ValuesIn(apps::listApps()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string n = info.param;
        for (char& c : n)
            if (c == '-')
                c = '_';
        return n;
    });
