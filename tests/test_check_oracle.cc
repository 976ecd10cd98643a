/**
 * @file
 * Unit tests for the SC data-value oracle: a correct protocol produces
 * zero violations on handcrafted sharing patterns, the cadence
 * validateCoherence() sweep runs, and a deliberately broken
 * invalidation is detected at the exact store that skipped it.
 */

#include <gtest/gtest.h>

#include "check/oracle.hh"
#include "sim/machine.hh"

using namespace ccnuma;

namespace {

sim::MachineConfig
smallConfig(int procs)
{
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(procs);
    cfg.cacheBytes = 64u << 10;
    cfg.check.validateEvery = 64;
    return cfg;
}

} // namespace

TEST(ScOracle, CleanSharingPatternHasNoViolations)
{
    sim::MachineConfig cfg = smallConfig(4);
    sim::Machine m(cfg);
    const sim::Addr shared = m.alloc(8 * cfg.lineBytes);
    const sim::BarrierId bar = m.barrierCreate();

    check::ScOracle oracle(m.mem());
    m.mem().attachCommitObserver(&oracle);

    // Several rounds of everyone reading every shared line, then one
    // writer updating them: exercises fills, upgrades, invalidation
    // fan-outs and 3-hop dirty misses.
    m.run([&](sim::Cpu& cpu) -> sim::Task {
        for (int round = 0; round < 6; ++round) {
            for (int i = 0; i < 8; ++i)
                cpu.read(shared + static_cast<sim::Addr>(i) *
                                      cfg.lineBytes);
            co_await cpu.barrier(bar);
            if (cpu.id() == round % cpu.nprocs())
                for (int i = 0; i < 8; ++i)
                    cpu.write(shared + static_cast<sim::Addr>(i) *
                                           cfg.lineBytes);
            co_await cpu.barrier(bar);
            co_await cpu.checkpoint();
        }
        co_return;
    });

    EXPECT_FALSE(oracle.failed())
        << oracle.violations().front().what;
    EXPECT_GT(oracle.commits(), 0u);
    EXPECT_GT(oracle.loadsChecked(), 0u);
    EXPECT_GT(oracle.validations(), 0u)
        << "cadence validateCoherence() never ran";
    EXPECT_TRUE(m.mem().validateCoherence().empty());
}

TEST(ScOracle, CountsCommitsAndCheckedLoads)
{
    sim::MachineConfig cfg = smallConfig(2);
    cfg.check.validateEvery = 0; // cadence off
    sim::Machine m(cfg);
    const sim::Addr line = m.allocLine();

    check::ScOracle oracle(m.mem());
    m.mem().attachCommitObserver(&oracle);
    m.run([&](sim::Cpu& cpu) -> sim::Task {
        if (cpu.id() == 0) {
            cpu.write(line);
            cpu.read(line);
            cpu.read(line);
        }
        co_return;
    });

    EXPECT_EQ(oracle.commits(), 3u);
    EXPECT_EQ(oracle.loadsChecked(), 2u);
    EXPECT_EQ(oracle.validations(), 0u);
    EXPECT_FALSE(oracle.failed());
}

TEST(ScOracle, SkippedInvalidationIsCaughtAtTheStore)
{
    // Minimal witness shape: both processors cache a line Shared, then
    // one writes it. The broken protocol spares the other sharer, and
    // the oracle's single-writer check fails at that very store.
    sim::MachineConfig cfg = smallConfig(2);
    cfg.check.mutation = sim::CheckMutation::SkipInvalidation;
    sim::Machine m(cfg);
    const sim::Addr line = m.allocLine();
    const sim::BarrierId bar = m.barrierCreate();

    check::ScOracle oracle(m.mem());
    m.mem().attachCommitObserver(&oracle);
    m.run([&](sim::Cpu& cpu) -> sim::Task {
        cpu.read(line);
        co_await cpu.barrier(bar);
        if (cpu.id() == 0)
            cpu.write(line);
        co_await cpu.barrier(bar);
        if (cpu.id() == 1)
            cpu.read(line); // stale hit on the spared copy
        co_return;
    });

    ASSERT_TRUE(oracle.failed());
    EXPECT_NE(oracle.violations().front().what.find("single-writer"),
              std::string::npos)
        << oracle.violations().front().what;
    // The stale copy is also structurally visible to the sweep.
    EXPECT_FALSE(m.mem().validateCoherence().empty());
}

TEST(ScOracle, DetachedObserverChangesNothing)
{
    // The commit hooks must be purely observational: identical final
    // times with and without an oracle attached.
    auto run = [](bool attach) {
        sim::MachineConfig cfg = smallConfig(4);
        sim::Machine m(cfg);
        const sim::Addr shared = m.alloc(16 * cfg.lineBytes);
        check::ScOracle oracle(m.mem());
        if (attach)
            m.mem().attachCommitObserver(&oracle);
        const sim::RunResult r =
            m.run([&](sim::Cpu& cpu) -> sim::Task {
                for (int i = 0; i < 64; ++i) {
                    cpu.read(shared +
                             static_cast<sim::Addr>(i % 16) *
                                 cfg.lineBytes);
                    cpu.write(shared +
                              static_cast<sim::Addr>((i * 7) % 16) *
                                  cfg.lineBytes);
                    if (i % 8 == 0)
                        co_await cpu.checkpoint();
                }
                co_return;
            });
        return r.time;
    };
    EXPECT_EQ(run(false), run(true));
}
