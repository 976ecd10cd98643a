/**
 * @file
 * App-level differential suite for the StudyRunner worker pool: every
 * registered application variant, run as a grid of cells on several
 * worker threads at once, must produce metrics bit-identical to the
 * same grid run on one worker.
 *
 * Each cell owns its Machine and App, so any state an app shares
 * between instances (a static table, a lazily built input, an RNG)
 * shows up here as a result that depends on which cells ran alongside
 * it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/registry.hh"
#include "bit_identity.hh"
#include "check/golden.hh"
#include "core/study_runner.hh"
#include "sim/config.hh"

using namespace ccnuma;

namespace {

/// `name` at goldenSize() on each configuration in `cfgs`, one cell
/// apiece, no baselines.
core::StudyPlan
appGrid(const std::string& name,
        const std::vector<sim::MachineConfig>& cfgs)
{
    core::StudyPlan plan;
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        plan.addParallelOnly(name + " cell " + std::to_string(i), cfgs[i],
                             [name] {
                                 return apps::makeApp(
                                     name, check::goldenSize(name));
                             });
    return plan;
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
expectSameGrid(const core::StudyResult& want, const core::StudyResult& got,
               const std::string& what)
{
    ASSERT_EQ(want.runs.size(), got.runs.size()) << what;
    for (std::size_t i = 0; i < want.runs.size(); ++i) {
        EXPECT_EQ(want.runs[i].name, got.runs[i].name) << what;
        testutil::expectIdentical(want.runs[i].m.par, got.runs[i].m.par,
                                  what + " " + want.runs[i].name);
    }
}

sim::MachineConfig
withProtocol(int procs, const char* protocol)
{
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(procs);
    EXPECT_TRUE(cfg.protocol.parse(protocol)) << protocol;
    return cfg;
}

} // namespace

class ParallelAppDiff : public ::testing::TestWithParam<std::string> {};

/// Every app, default protocol, four machine sizes; worker counts
/// {2, 4, auto} against one worker.
TEST_P(ParallelAppDiff, BitIdenticalAcrossWorkerCounts)
{
    const std::string name = GetParam();
    std::vector<sim::MachineConfig> cfgs;
    for (const int procs : {1, 2, 4, 8})
        cfgs.push_back(withProtocol(procs, "mesi"));
    const core::StudyPlan plan = appGrid(name, cfgs);

    const core::StudyResult oracle = runOk(plan, 1);
    for (const int jobs : {2, 4, 0})
        expectSameGrid(oracle, runOk(plan, jobs),
                       name + " jobs=" + std::to_string(jobs));
}

/// Every app under every protocol at once, one cell per protocol.
TEST_P(ParallelAppDiff, BitIdenticalUnderEveryProtocol)
{
    const std::string name = GetParam();
    std::vector<sim::MachineConfig> cfgs;
    for (const char* protocol : {"mesi", "moesi", "dragon"})
        cfgs.push_back(withProtocol(8, protocol));
    const core::StudyPlan plan = appGrid(name, cfgs);

    expectSameGrid(runOk(plan, 1), runOk(plan, 3), name + " jobs=3");
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
