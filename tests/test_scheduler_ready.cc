/**
 * @file
 * Property and engine tests for the scheduler's ready tree.
 *
 * The contract (see sim/scheduler.hh): the tree's top is the minimum
 * (time, seq) key over the processors that are not idle, where a
 * ready() takes a fresh seq unless the processor is already queued at
 * that very time (then its earlier seq stands), and the dispatched
 * processor keeps its spent key until it re-keys or goes idle. The
 * property tests drive random ready/dispatch/block sequences against a
 * sorted std::set oracle of the same keys; the engine test checks that
 * a yield which would dispatch the same processor again costs no
 * coroutine resume.
 */

#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/machine.hh"
#include "sim/scheduler.hh"

namespace {

using ccnuma::sim::Cycles;
using ccnuma::sim::kNoProc;
using ccnuma::sim::ProcId;
using ccnuma::sim::ReadyTree;

/// The contract restated over a sorted set of (time, seq, proc) keys.
class Oracle
{
  public:
    explicit Oracle(int n) : key_(n) {}

    void
    ready(ProcId p, Cycles t)
    {
        Slot& k = key_[p];
        if (k.queued && k.time == t && p != running_)
            return;
        if (p == running_)
            running_ = kNoProc;
        erase(p);
        k = Slot{true, t, seq_++};
        sorted_.emplace(k.time, k.seq, p);
    }
    void
    idle(ProcId p)
    {
        if (p == running_)
            running_ = kNoProc;
        erase(p);
    }
    ProcId
    top() const
    {
        return sorted_.empty() ? kNoProc : std::get<2>(*sorted_.begin());
    }
    ProcId dispatch() { return running_ = top(); }
    ProcId running() const { return running_; }
    bool queued(ProcId p) const { return key_[p].queued; }
    Cycles time(ProcId p) const { return key_[p].time; }

  private:
    struct Slot {
        bool queued = false;
        Cycles time = 0;
        std::uint64_t seq = 0;
    };
    void
    erase(ProcId p)
    {
        Slot& k = key_[p];
        if (k.queued)
            sorted_.erase({k.time, k.seq, p});
        k.queued = false;
    }

    std::vector<Slot> key_;
    std::set<std::tuple<Cycles, std::uint64_t, ProcId>> sorted_;
    std::uint64_t seq_ = 0;
    ProcId running_ = kNoProc;
};

/// Random scheduler-shaped traffic: dispatch when nothing runs; the
/// running processor yields (re-keys past its time), blocks or wakes
/// others. Wake times lie in [frontier, frontier + spread] (quantum-
/// bounded disorder); `farFrac` of them land far ahead, `pastFrac`
/// before the frontier, and some repeat a queued processor's time.
void
matchesOracle(std::uint64_t seed, int n, Cycles spread, double farFrac,
              double pastFrac, int steps)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " n " << n);
    std::mt19937_64 rng(seed);
    auto chance = [&](double f) {
        return static_cast<double>(rng() % 10000) < f * 10000;
    };
    ReadyTree tree;
    tree.reset(n);
    Oracle oracle(n);
    for (ProcId p = 0; p < n; ++p) {
        tree.ready(p, 0);
        oracle.ready(p, 0);
    }
    Cycles frontier = 0;

    for (int i = 0; i < steps; ++i) {
        const ProcId run = oracle.running();
        if (run == kNoProc) {
            const ProcId want = oracle.dispatch();
            ASSERT_EQ(tree.dispatch(), want) << "step " << i;
            if (want == kNoProc) { // all idle: wake someone
                const ProcId p = static_cast<ProcId>(rng() % n);
                tree.ready(p, frontier);
                oracle.ready(p, frontier);
            } else {
                frontier = oracle.time(want);
            }
            continue;
        }
        const ProcId p = static_cast<ProcId>(rng() % n);
        Cycles t = frontier + rng() % (spread + 1);
        if (chance(farFrac))
            t = frontier + 200 * spread + rng() % (64 * spread + 1);
        else if (chance(pastFrac))
            t = rng() % (frontier + 1);
        else if (oracle.queued(p) && p != run && chance(0.3))
            t = oracle.time(p); // re-ready at the queued time
        switch (rng() % 4) {
          case 0: // running processor yields (or blocks and is done)
            if (chance(0.2)) {
                tree.idle(run);
                oracle.idle(run);
            } else {
                tree.ready(run, t);
                oracle.ready(run, t);
            }
            break;
          case 1: // it blocks
            tree.idle(run);
            oracle.idle(run);
            break;
          default: // it wakes (or re-readies) another processor
            if (p != run) {
                tree.ready(p, t);
                oracle.ready(p, t);
            }
            break;
        }
        ASSERT_EQ(tree.running(), oracle.running()) << "step " << i;
        ASSERT_EQ(tree.top(), oracle.top()) << "step " << i;
    }
    // Drain: dispatch and idle everything in order.
    if (const ProcId run = oracle.running(); run != kNoProc) {
        tree.idle(run);
        oracle.idle(run);
    }
    for (ProcId want = oracle.dispatch(); want != kNoProc;
         want = oracle.dispatch()) {
        ASSERT_EQ(tree.dispatch(), want);
        tree.idle(want);
        oracle.idle(want);
    }
    EXPECT_EQ(tree.dispatch(), kNoProc);
}

TEST(ReadyTree, MatchesSortedOracleUnderRandomOps)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        matchesOracle(seed, 64, /*spread=*/500, /*farFrac=*/0.0,
                      /*pastFrac=*/0.0, 4000);
}

TEST(ReadyTree, MatchesSortedOracleWithFarFutureWakeups)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        matchesOracle(seed, 64, 500, 0.05, 0.0, 4000);
}

TEST(ReadyTree, MatchesSortedOracleAcrossTreeSizes)
{
    // Leaves sit at [n, 2n) for any n, so odd sizes give leaves at
    // two depths; sweep them along with the power-of-two machines.
    for (int n : {1, 2, 3, 5, 7, 31, 64, 100, 256})
        matchesOracle(/*seed=*/42, n, 500, 0.01, 0.01, 3000);
}

TEST(ReadyTree, PastReadyDispatchesBeforeLaterKeys)
{
    // The tree is exact for any key: a ready() earlier than everything
    // already dispatched still comes out first.
    ReadyTree tree;
    tree.reset(4);
    tree.ready(1, 10000);
    ASSERT_EQ(tree.dispatch(), 1);
    tree.idle(1);
    tree.ready(2, 500); // far before the last dispatch
    tree.ready(3, 20000);
    EXPECT_EQ(tree.dispatch(), 2);
    tree.idle(2);
    EXPECT_EQ(tree.dispatch(), 3);
    tree.idle(3);
    EXPECT_EQ(tree.dispatch(), kNoProc);
}

TEST(ReadyTree, TiesDispatchInSeqOrder)
{
    // All ready at the same time: FIFO by ready() order.
    ReadyTree tree;
    tree.reset(7);
    for (ProcId p : {3, 0, 6, 1, 5, 2, 4})
        tree.ready(p, 1000);
    for (ProcId want : {3, 0, 6, 1, 5, 2, 4}) {
        ASSERT_EQ(tree.dispatch(), want);
        tree.idle(want);
    }
}

TEST(ReadyTree, SameTimeReReadyKeepsEarlierSeq)
{
    ReadyTree tree;
    tree.reset(3);
    tree.ready(0, 100);
    tree.ready(1, 100);
    tree.ready(0, 100); // already queued at 100: keeps its first seq
    EXPECT_EQ(tree.top(), 0);
    tree.ready(0, 200);
    tree.ready(0, 100); // a different time in between: fresh seq
    EXPECT_EQ(tree.top(), 1);

    // The running processor's key is spent: re-readying it at its
    // dispatch time queues it behind an equal-time peer.
    ASSERT_EQ(tree.dispatch(), 1);
    tree.ready(2, 100);
    tree.ready(1, 100);
    EXPECT_EQ(tree.running(), kNoProc);
    EXPECT_EQ(tree.dispatch(), 0);
    tree.idle(0);
    EXPECT_EQ(tree.dispatch(), 2);
}

// ---- engine: in-place yields ----

TEST(SchedulerEngine, OverQuantumCheckpointsOnOneProcessorDispatchOnce)
{
    // Every checkpoint fires (each iteration runs past the quantum),
    // but a lone processor is always the earliest one: it re-keys and
    // keeps running without a single extra coroutine resume.
    ccnuma::sim::MachineConfig cfg =
        ccnuma::sim::MachineConfig::origin2000(1);
    ccnuma::sim::Machine m(cfg);
    const Cycles quantum = cfg.quantum;
    int yields = 0;
    const auto r = m.run([&](ccnuma::sim::Cpu& cpu) -> ccnuma::sim::Task {
        for (int i = 0; i < 100; ++i) {
            cpu.busy(2 * quantum);
            yields += cpu.quantumUp();
            co_await cpu.checkpoint();
        }
    });
    EXPECT_EQ(yields, 100);
    EXPECT_EQ(r.time, 200 * quantum);
    EXPECT_EQ(m.scheduler().dispatches(), 1u);
}

TEST(SchedulerEngine, YieldHandsOverWhenAnotherProcessorIsEarlier)
{
    // Two processors in lockstep: each over-quantum checkpoint finds
    // the other one earlier, so every yield is a real suspension.
    const ccnuma::sim::MachineConfig cfg =
        ccnuma::sim::MachineConfig::origin2000(2);
    ccnuma::sim::Machine m(cfg);
    const Cycles quantum = cfg.quantum;
    m.run([&](ccnuma::sim::Cpu& cpu) -> ccnuma::sim::Task {
        for (int i = 0; i < 10; ++i) {
            cpu.busy(2 * quantum);
            co_await cpu.checkpoint();
        }
    });
    // Each processor's first dispatch plus one per yield: all 20
    // checkpoints find the other processor earlier (on a time tie,
    // the one that yielded first).
    EXPECT_EQ(m.scheduler().dispatches(), 2u + 2u * 10u);
}

} // namespace
