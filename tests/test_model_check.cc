/**
 * @file
 * The ccnuma::model explicit-state checker, checked:
 *
 *  - every {mesi, moesi, dragon} x {fullbv, coarse:4, ptr:2}
 *    combination verifies exhaustively at P = 2, 3 and 4 — the state
 *    space closes, no invariant fires, and the reachable-state counts
 *    are sane;
 *  - the symmetry quotient agrees with the concrete space (same
 *    verdict, strictly fewer canonical states);
 *  - repeated runs are bit-identical (the BFS is deterministic);
 *  - the state cap reports "truncated", never "verified";
 *  - each deliberate protocol corruption — SkipInvalidation,
 *    DropOwnedWriteback, CorruptMoesiTable — is caught on every
 *    combination where its mechanism exists, with a BFS-minimal
 *    counterexample that replays through a fresh engine.
 */

#include <gtest/gtest.h>

#include "model/checker.hh"
#include "model/world.hh"
#include "sim/config.hh"

using namespace ccnuma;

TEST(ModelSweep, EveryComboVerifiesExhaustively)
{
    const std::vector<model::CheckResult> results =
        model::runSweep({2, 3, 4}, 1u << 20,
                        sim::CheckMutation::None);
    ASSERT_EQ(results.size(), 27u);
    for (const model::CheckResult& r : results) {
        EXPECT_TRUE(r.ok) << model::formatResult(r);
        EXPECT_FALSE(r.truncated) << model::formatResult(r);
        // A one-line space is small but never trivial: even P=2 MESI
        // has the {I,S,D} x pending-fill product to cover.
        EXPECT_GT(r.states, 4u) << model::formatResult(r);
        EXPECT_GT(r.transitions, r.states) << model::formatResult(r);
        EXPECT_GE(r.depth, 3) << model::formatResult(r);
    }
}

TEST(ModelSymmetry, QuotientAgreesWithConcreteSpace)
{
    for (const char* proto : {"mesi", "moesi", "dragon"}) {
        model::CheckOptions on;
        on.protocol = proto;
        on.procs = 3;
        model::CheckOptions off = on;
        off.symmetry = false;
        const model::CheckResult a = model::runCheck(on);
        const model::CheckResult b = model::runCheck(off);
        EXPECT_TRUE(a.ok) << model::formatResult(a);
        EXPECT_TRUE(b.ok) << model::formatResult(b);
        EXPECT_EQ(a.symmetryOrder, 6u) << proto;
        EXPECT_EQ(b.symmetryOrder, 1u) << proto;
        // The quotient must shrink the space, not distort it.
        EXPECT_LT(a.states, b.states) << proto;
    }
}

TEST(ModelDeterminism, RepeatedRunsAreIdentical)
{
    model::CheckOptions o;
    o.protocol = "moesi";
    o.dirFormat = "ptr:2";
    o.procs = 3;
    const model::CheckResult a = model::runCheck(o);
    const model::CheckResult b = model::runCheck(o);
    EXPECT_TRUE(a.ok);
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.depth, b.depth);
}

TEST(ModelTruncation, StateCapReportsTruncatedNotVerified)
{
    model::CheckOptions o;
    o.procs = 4;
    o.maxStates = 5;
    const model::CheckResult r = model::runCheck(o);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.truncated);
    EXPECT_TRUE(r.invariant.empty()) << r.invariant;
}

TEST(ModelConfig, BadOptionsReportConfigNotViolation)
{
    model::CheckOptions o;
    o.protocol = "mosi";
    model::CheckResult r = model::runCheck(o);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.invariant, "config");

    o.protocol = "mesi";
    o.procs = 9;
    r = model::runCheck(o);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.invariant, "config");
    // The reason runCheck reports is configError's, which callers
    // consult before running anything.
    EXPECT_EQ(r.detail, model::configError(o));

    o.procs = 2;
    EXPECT_EQ(model::configError(o), "");
    o.dirFormat = "ptr:0";
    EXPECT_NE(model::configError(o), "");
}

namespace {

/// Assert that `mutation` is caught on protocol x format x P with a
/// replayable counterexample of exactly `steps` transitions breaching
/// `invariant` — BFS guarantees the witness is minimum-length, so the
/// expected depth is part of the contract, not a tolerance.
void
expectCaught(sim::CheckMutation mutation, const char* protocol,
             const char* invariant, std::size_t steps)
{
    for (const char* fmt : {"fullbv", "coarse:4", "ptr:2"}) {
        for (int p : {2, 3, 4}) {
            model::CheckOptions o;
            o.protocol = protocol;
            o.dirFormat = fmt;
            o.procs = p;
            o.mutation = mutation;
            const model::CheckResult r = model::runCheck(o);
            ASSERT_FALSE(r.ok)
                << protocol << " x " << fmt << " P=" << p
                << ": mutation went undetected";
            EXPECT_FALSE(r.truncated);
            EXPECT_EQ(r.invariant, invariant)
                << model::formatResult(r);
            EXPECT_EQ(r.counterexample.size(), steps)
                << model::formatResult(r);
            EXPECT_LE(r.counterexample.size(), 20u);
            EXPECT_TRUE(r.replayed) << model::formatResult(r);
            // Mutated searches run the concrete space: the mutations
            // are not permutation-equivariant.
            EXPECT_EQ(r.symmetryOrder, 1u);
        }
    }
}

} // namespace

TEST(ModelMutation, SkipInvalidationCaughtExhaustively)
{
    // A spared fan-out target keeps a stale valid copy the moment a
    // second processor writes: two steps, stale-read invariant.
    expectCaught(sim::CheckMutation::SkipInvalidation, "mesi",
                 "data-value", 2);
    expectCaught(sim::CheckMutation::SkipInvalidation, "moesi",
                 "data-value", 2);
}

TEST(ModelMutation, DropOwnedWritebackCaughtExhaustively)
{
    // Evicting an Owned copy without the writeback leaves the
    // directory promising current memory over a stale home copy:
    // write, (read|) evict — three steps to reach Owned and drop it.
    expectCaught(sim::CheckMutation::DropOwnedWriteback, "moesi",
                 "memory-currency", 3);
    expectCaught(sim::CheckMutation::DropOwnedWriteback, "dragon",
                 "memory-currency", 3);
}

TEST(ModelMutation, CorruptMoesiTableCaughtExhaustively)
{
    // The zeroed remote-write x Shared cell stops invalidating
    // sharers: same two-step breach as SkipInvalidation, different
    // root cause.
    expectCaught(sim::CheckMutation::CorruptMoesiTable, "moesi",
                 "data-value", 2);
}

TEST(ModelMutation, CounterexampleReplaysThroughAFreshEngine)
{
    // The reported script is an executable witness: replaying it
    // through a brand-new World breaches the same invariant at the
    // same step.
    model::CheckOptions o;
    o.protocol = "moesi";
    o.mutation = sim::CheckMutation::DropOwnedWriteback;
    const model::CheckResult r = model::runCheck(o);
    ASSERT_FALSE(r.ok);
    ASSERT_FALSE(r.counterexample.empty());

    sim::ProtocolConfig proto;
    sim::DirectoryConfig fmt;
    ASSERT_TRUE(proto.parse(o.protocol));
    ASSERT_TRUE(fmt.parse(o.dirFormat));
    model::World w(model::World::makeConfig(proto, fmt, o.procs,
                                            o.mutation));
    EXPECT_EQ(w.replay(r.counterexample),
              r.counterexample.size() - 1);
    EXPECT_EQ(w.invariant(), r.invariant);
    EXPECT_FALSE(w.violation().empty());
}
