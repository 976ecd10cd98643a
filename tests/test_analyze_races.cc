/**
 * @file
 * Litmus and self-check tests for the happens-before race analyzer.
 *
 * Hand-built StressPrograms pin down the detector's verdict on the
 * four canonical cases (true race, lock-protected, barrier-separated,
 * false sharing), a fixed-seed run checks determinism, and
 * CheckMutation::DropLockAcquire must turn a disciplined race-free
 * program into a detected race with a small ddmin-shrunk witness.
 */

#include <gtest/gtest.h>

#include "analyze/race.hh"
#include "analyze/sweep.hh"
#include "check/shrink.hh"
#include "check/stress.hh"

namespace ccnuma {
namespace {

using check::Op;
using check::OpKind;
using check::Region;
using check::StressProgram;

/// Two-proc program skeleton; tests append ops per processor.
StressProgram
twoProcs()
{
    StressProgram prog;
    prog.ops.resize(2);
    prog.numLocks = 1;
    return prog;
}

check::StressOptions
litmusOptions()
{
    check::StressOptions opt;
    opt.procs = 2;
    opt.numLocks = 1;
    return opt;
}

TEST(AnalyzeLitmus, UnsynchronizedWritesRace)
{
    StressProgram prog = twoProcs();
    prog.ops[0].push_back({OpKind::Write, Region::Shared, 0, 0});
    prog.ops[1].push_back({OpKind::Write, Region::Shared, 0, 0});

    const analyze::RaceStressResult r =
        analyze::raceExecute(prog, litmusOptions());
    ASSERT_EQ(r.races.size(), 1u);
    EXPECT_TRUE(r.report.failed);
    EXPECT_EQ(r.stats.racesFound, 1u);
    // Both sides of the report are stores with no lock context.
    const std::string msg = r.races.front().format();
    EXPECT_NE(msg.find("store"), std::string::npos) << msg;
    EXPECT_NE(msg.find("locks none"), std::string::npos) << msg;
}

TEST(AnalyzeLitmus, UnsynchronizedReadWriteRaces)
{
    StressProgram prog = twoProcs();
    prog.ops[0].push_back({OpKind::Read, Region::Shared, 0, 0});
    prog.ops[1].push_back({OpKind::Write, Region::Shared, 0, 0});

    const analyze::RaceStressResult r =
        analyze::raceExecute(prog, litmusOptions());
    EXPECT_EQ(r.races.size(), 1u);
    EXPECT_TRUE(r.report.failed);
}

TEST(AnalyzeLitmus, LockProtectedWritesDoNotRace)
{
    StressProgram prog = twoProcs();
    for (int p = 0; p < 2; ++p) {
        const std::uint64_t g = 100 + static_cast<std::uint64_t>(p);
        prog.ops[p].push_back({OpKind::LockAcq, Region::Shared, 0, g});
        prog.ops[p].push_back({OpKind::Write, Region::Shared, 0, g});
        prog.ops[p].push_back({OpKind::Read, Region::Shared, 0, g});
        prog.ops[p].push_back({OpKind::LockRel, Region::Shared, 0, g});
    }

    const analyze::RaceStressResult r =
        analyze::raceExecute(prog, litmusOptions());
    EXPECT_TRUE(r.races.empty())
        << r.races.front().format();
    EXPECT_FALSE(r.report.failed) << r.report.message;
    EXPECT_EQ(r.stats.locksetAlarms, 0u);
}

TEST(AnalyzeLitmus, BarrierSeparatedWritesDoNotRace)
{
    StressProgram prog = twoProcs();
    // P0 writes before the barrier, P1 after it.
    prog.ops[0].push_back({OpKind::Write, Region::Shared, 0, 0});
    prog.ops[0].push_back({OpKind::Barrier, Region::Shared, 0, 500});
    prog.ops[1].push_back({OpKind::Barrier, Region::Shared, 0, 500});
    prog.ops[1].push_back({OpKind::Write, Region::Shared, 0, 0});
    prog.ops[1].push_back({OpKind::Read, Region::Shared, 0, 0});

    const analyze::RaceStressResult r =
        analyze::raceExecute(prog, litmusOptions());
    EXPECT_TRUE(r.races.empty())
        << r.races.front().format();
    EXPECT_EQ(r.stats.barrierEpisodes, 1u);
}

TEST(AnalyzeLitmus, FalseSharingIsNotARace)
{
    // Same line, per-processor words: heavy line bouncing, zero
    // same-byte conflicts. The detector must stay quiet.
    StressProgram prog = twoProcs();
    for (int p = 0; p < 2; ++p)
        for (int k = 0; k < 8; ++k) {
            prog.ops[p].push_back(
                {OpKind::Write, Region::FalseShared, 0, 0});
            prog.ops[p].push_back(
                {OpKind::Read, Region::FalseShared, 0, 0});
        }

    const analyze::RaceStressResult r =
        analyze::raceExecute(prog, litmusOptions());
    EXPECT_TRUE(r.races.empty())
        << r.races.front().format();
    EXPECT_FALSE(r.report.failed) << r.report.message;
}

TEST(AnalyzeLitmus, AtomicRmwPairsDoNotRaceButRmwVsStoreDoes)
{
    StressProgram atomics = twoProcs();
    atomics.ops[0].push_back({OpKind::Rmw, Region::Shared, 0, 0});
    atomics.ops[1].push_back({OpKind::Rmw, Region::Shared, 0, 0});
    EXPECT_TRUE(
        analyze::raceExecute(atomics, litmusOptions()).races.empty());

    StressProgram mixed = twoProcs();
    mixed.ops[0].push_back({OpKind::Rmw, Region::Shared, 0, 0});
    mixed.ops[1].push_back({OpKind::Write, Region::Shared, 0, 0});
    EXPECT_FALSE(
        analyze::raceExecute(mixed, litmusOptions()).races.empty());
}

TEST(AnalyzeStress, DisciplinedProgramsAreRaceFreeAndDeterministic)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        check::StressOptions opt = analyze::raceStressOptions(seed);
        const StressProgram prog = check::generate(opt);

        const analyze::RaceStressResult a =
            analyze::raceExecute(prog, opt);
        EXPECT_TRUE(a.races.empty())
            << "seed " << seed << ": " << a.races.front().format();
        EXPECT_FALSE(a.report.failed) << a.report.message;

        // Bit-identical replay: same execution, same detector state.
        const analyze::RaceStressResult b =
            analyze::raceExecute(prog, opt);
        EXPECT_EQ(a.report.stateHash, b.report.stateHash);
        EXPECT_EQ(a.report, b.report);
        EXPECT_EQ(a.stats.memOps, b.stats.memOps);
        EXPECT_EQ(a.stats.syncOps, b.stats.syncOps);
        EXPECT_EQ(a.stats.vcJoins, b.stats.vcJoins);
        EXPECT_EQ(a.stats.racesFound, b.stats.racesFound);
    }
}

TEST(AnalyzeStress, DropLockAcquireIsDetectedAndShrinksSmall)
{
    check::StressOptions opt = analyze::raceStressOptions(7);
    const StressProgram prog = check::generate(opt);

    // Sanity: the unmutated run is race-free.
    ASSERT_TRUE(analyze::raceExecute(prog, opt).races.empty());

    opt.mutation = sim::CheckMutation::DropLockAcquire;
    const analyze::RaceStressResult mutated =
        analyze::raceExecute(prog, opt);
    ASSERT_FALSE(mutated.races.empty())
        << "DropLockAcquire must introduce a detectable race";
    EXPECT_TRUE(mutated.report.failed);

    const check::ShrinkResult shrunk =
        analyze::shrinkRace(prog, opt);
    EXPECT_TRUE(analyze::raceExecute(shrunk.program, opt)
                    .report.failed);
    EXPECT_LE(shrunk.program.numOps(), 50u)
        << check::formatWitness(shrunk.program);
}

} // namespace
} // namespace ccnuma
