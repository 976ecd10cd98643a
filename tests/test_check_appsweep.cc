/**
 * @file
 * Property test: every registered application variant, run at a small
 * problem size with the SC oracle attached and a periodic
 * validateCoherence() sweep, produces zero violations. This checks the
 * protocol against the full diversity of real access patterns (not
 * just the synthetic stress mixes) — task queues, tree builds,
 * stencils, sort permutations, locks and barriers.
 */

#include <gtest/gtest.h>

#include "apps/registry.hh"
#include "check/oracle.hh"
#include "sim/machine.hh"

using namespace ccnuma;

class AppOracleSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AppOracleSweep, RunsCleanUnderTheOracle)
{
    const std::string name = GetParam();
    // A small cache keeps the cadence sweep (O(cache ways)) cheap and
    // adds eviction/writeback pressure the 4 MB default would hide.
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(4);
    cfg.cacheBytes = 256u << 10;
    cfg.check.validateEvery = 1024;

    sim::Machine m(cfg);
    const apps::AppPtr app =
        apps::makeApp(name, apps::goldenSize(name));
    app->setup(m);

    check::ScOracle oracle(m.mem());
    m.mem().attachCommitObserver(&oracle);
    const sim::RunResult r = m.run(app->program());

    EXPECT_GT(r.time, 0u);
    EXPECT_FALSE(oracle.failed())
        << name << ": " << oracle.violations().front().what
        << " (commit " << oracle.violations().front().commit << ")";
    EXPECT_GT(oracle.loadsChecked(), 0u);
    // Exactly one sweep per cadence interval actually reached (tiny
    // apps may finish before the first one).
    EXPECT_EQ(oracle.validations(),
              oracle.commits() / cfg.check.validateEvery)
        << name;
    EXPECT_TRUE(m.mem().validateCoherence().empty()) << name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppOracleSweep,
                         ::testing::ValuesIn(apps::listApps()),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (auto& ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });
