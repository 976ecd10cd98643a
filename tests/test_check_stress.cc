/**
 * @file
 * Tests for the randomized stress harness: deterministic generation
 * and bit-identical replay (including failing runs), structural
 * invariants of generated programs, clean-protocol sweeps over many
 * seeds, and the mutation self-test with automatic witness shrinking.
 */

#include <gtest/gtest.h>

#include <map>

#include "check/shrink.hh"
#include "check/stress.hh"

using namespace ccnuma;
using check::Op;
using check::OpKind;

namespace {

check::StressOptions
quickOptions(std::uint64_t seed)
{
    check::StressOptions opt;
    opt.seed = seed;
    opt.procs = 4;
    opt.opsPerProc = 120;
    // ~400 commits per run: a low cadence so every run validates.
    opt.validateEvery = 128;
    return opt;
}

} // namespace

TEST(StressGenerate, IsDeterministic)
{
    const check::StressOptions opt = quickOptions(99);
    const check::StressProgram a = check::generate(opt);
    const check::StressProgram b = check::generate(opt);
    ASSERT_EQ(a.procs(), b.procs());
    ASSERT_EQ(a.numOps(), b.numOps());
    for (int p = 0; p < a.procs(); ++p)
        for (std::size_t i = 0; i < a.ops[p].size(); ++i) {
            EXPECT_EQ(a.ops[p][i].kind, b.ops[p][i].kind);
            EXPECT_EQ(a.ops[p][i].slot, b.ops[p][i].slot);
            EXPECT_EQ(a.ops[p][i].group, b.ops[p][i].group);
        }
}

TEST(StressGenerate, BarrierGroupsAlignAcrossProcessors)
{
    check::StressOptions opt = quickOptions(7);
    opt.barriers = 4;
    const check::StressProgram prog = check::generate(opt);
    // Every processor must pass the same barrier instances in the same
    // order, or the program deadlocks.
    std::vector<std::vector<std::uint64_t>> seen(
        static_cast<std::size_t>(prog.procs()));
    for (int p = 0; p < prog.procs(); ++p)
        for (const Op& op : prog.ops[static_cast<std::size_t>(p)])
            if (op.kind == OpKind::Barrier)
                seen[static_cast<std::size_t>(p)].push_back(op.group);
    for (int p = 1; p < prog.procs(); ++p)
        EXPECT_EQ(seen[static_cast<std::size_t>(p)], seen[0]);
    EXPECT_EQ(seen[0].size(), 4u);
}

TEST(StressGenerate, LockSectionsAreBalancedPairs)
{
    check::StressOptions opt = quickOptions(11);
    opt.lockFrac = 0.25; // force plenty of sections
    const check::StressProgram prog = check::generate(opt);
    bool sawSection = false;
    for (int p = 0; p < prog.procs(); ++p) {
        std::map<std::uint32_t, int> depth;
        for (const Op& op : prog.ops[static_cast<std::size_t>(p)]) {
            if (op.kind == OpKind::LockAcq) {
                sawSection = true;
                EXPECT_EQ(depth[op.slot], 0) << "nested same-lock acq";
                ++depth[op.slot];
            } else if (op.kind == OpKind::LockRel) {
                EXPECT_EQ(depth[op.slot], 1) << "release without acq";
                --depth[op.slot];
            } else if (op.kind == OpKind::Barrier) {
                for (const auto& [lock, d] : depth)
                    EXPECT_EQ(d, 0)
                        << "barrier inside lock section " << lock;
            }
        }
        for (const auto& [lock, d] : depth)
            EXPECT_EQ(d, 0) << "unreleased lock " << lock;
    }
    EXPECT_TRUE(sawSection);
}

TEST(StressRun, CleanProtocolPassesManySeeds)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const check::StressReport rep =
            check::runStress(quickOptions(seed));
        EXPECT_FALSE(rep.failed)
            << "seed " << seed << ": " << rep.message;
        EXPECT_GT(rep.loadsChecked, 0u) << "seed " << seed;
        EXPECT_GT(rep.validations, 0u) << "seed " << seed;
    }
}

TEST(StressRun, ReplayIsBitIdentical)
{
    const check::StressOptions opt = quickOptions(12345);
    const check::StressReport a = check::runStress(opt);
    const check::StressReport b = check::runStress(opt);
    EXPECT_TRUE(a == b);
    EXPECT_NE(a.stateHash, 0u);

    // Different seeds must actually change the execution.
    const check::StressReport c = check::runStress(quickOptions(54321));
    EXPECT_NE(a.stateHash, c.stateHash);

    // A disciplined (race-free by construction) program replays
    // bit-identically too.
    check::StressOptions disc = opt;
    disc.disciplined = true;
    EXPECT_TRUE(check::runStress(disc) == check::runStress(disc));
}

TEST(StressShrink, PassingProgramIsReturnedUnchanged)
{
    const check::StressOptions opt = quickOptions(3);
    const check::StressProgram prog = check::generate(opt);
    const check::ShrinkResult res = check::shrink(prog, opt);
    EXPECT_FALSE(res.report.failed);
    EXPECT_EQ(res.opsAfter, res.opsBefore);
    EXPECT_EQ(res.runs, 1);
}

TEST(StressMutation, BrokenInvalidationIsCaughtReplayedAndShrunk)
{
    check::StressOptions opt = quickOptions(1);
    opt.procs = 8;
    opt.opsPerProc = 250;
    opt.mutation = sim::CheckMutation::SkipInvalidation;

    // 1. The oracle catches the deliberately broken protocol.
    const check::StressReport rep = check::runStress(opt);
    ASSERT_TRUE(rep.failed) << "mutation went undetected";
    EXPECT_FALSE(rep.message.empty());
    EXPECT_GT(rep.failCommit, 0u);

    // 2. The failing seed replays bit-identically.
    const check::StressReport replay = check::runStress(opt);
    EXPECT_TRUE(replay == rep);

    // 3. The witness shrinks to a handful of ops (<= 50 required).
    const check::ShrinkResult sh =
        check::shrink(check::generate(opt), opt);
    EXPECT_TRUE(sh.report.failed);
    EXPECT_LE(sh.opsAfter, 50u);
    EXPECT_LT(sh.opsAfter, sh.opsBefore);
    // The witness report itself replays bit-identically too.
    const check::StressReport again = check::execute(sh.program, opt);
    EXPECT_TRUE(again == sh.report);
    // And the formatted witness is printable and mentions each op.
    const std::string text = check::formatWitness(sh.program);
    EXPECT_NE(text.find("proc"), std::string::npos);
}

TEST(StressMutation, CaughtAcrossSeeds)
{
    // The detector must not depend on one lucky interleaving.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        check::StressOptions opt = quickOptions(seed);
        opt.mutation = sim::CheckMutation::SkipInvalidation;
        const check::StressReport rep = check::runStress(opt);
        EXPECT_TRUE(rep.failed)
            << "seed " << seed << " did not expose the mutation";
    }
}
