/**
 * @file
 * End-to-end checks for the non-default coherence protocols (MOESI,
 * Dragon) and compressed directory formats (coarse:K, ptr:N):
 *
 *  - every new protocol x format combination runs the all-apps SC
 *    oracle sweep, a 20-seed stress sweep and a race-free app sweep
 *    clean;
 *  - the check.legacyMesiPath seam replays the table-driven engine
 *    bit-identically for MESI + fullbv;
 *  - directed litmus programs pin the distinguishing behaviours:
 *    MOESI owner-forwarding keeps serving readers from the dirty copy,
 *    Dragon updates leave remote copies valid (no invalidations at
 *    all), coarse vectors over-invalidate within a marked region and
 *    Dir_iB broadcasts after pointer overflow — with the spurious
 *    traffic landing in invalsSpurious and the obs sharing profiler
 *    still counting only real invalidations;
 *  - a corrupted MOESI table cell (CheckMutation::CorruptMoesiTable)
 *    is caught by the oracle and shrinks to a <= 50-op witness.
 */

#include <gtest/gtest.h>

#include "analyze/sweep.hh"
#include "apps/registry.hh"
#include "check/oracle.hh"
#include "check/shrink.hh"
#include "check/stress.hh"
#include "obs/trace.hh"
#include "sim/machine.hh"

using namespace ccnuma;
using sim::ProtocolKind;

namespace {

sim::MachineConfig
comboConfig(const std::string& protocol, const std::string& dirFormat,
            int procs = 4)
{
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(procs);
    if (!cfg.protocol.parse(protocol))
        ADD_FAILURE() << "bad protocol " << protocol;
    if (!cfg.dirFormat.parse(dirFormat))
        ADD_FAILURE() << "bad dir format " << dirFormat;
    return cfg;
}

/// The non-default combinations exercised by the unit sweeps (the
/// full cross-product grid lives in `ccnuma_verify protocols`).
const std::vector<std::pair<std::string, std::string>> kNewCombos = {
    {"moesi", "fullbv"},  {"dragon", "fullbv"}, {"mesi", "coarse:2"},
    {"mesi", "ptr:1"},    {"moesi", "coarse:2"}, {"dragon", "ptr:1"},
};

} // namespace

class ProtocolComboSweep
    : public ::testing::TestWithParam<std::pair<std::string, std::string>>
{
};

TEST_P(ProtocolComboSweep, AllAppsRunCleanUnderTheOracle)
{
    const auto& [protocol, dirFormat] = GetParam();
    for (const std::string& name : apps::listApps()) {
        sim::MachineConfig cfg = comboConfig(protocol, dirFormat);
        cfg.cacheBytes = 256u << 10;
        cfg.check.validateEvery = 1024;

        sim::Machine m(cfg);
        const apps::AppPtr app =
            apps::makeApp(name, apps::goldenSize(name));
        app->setup(m);

        check::ScOracle oracle(m.mem());
        m.mem().attachCommitObserver(&oracle);
        const sim::RunResult r = m.run(app->program());

        EXPECT_GT(r.time, 0u) << name;
        ASSERT_FALSE(oracle.failed())
            << protocol << "/" << dirFormat << " " << name << ": "
            << oracle.violations().front().what << " (commit "
            << oracle.violations().front().commit << ")";
        EXPECT_GT(oracle.loadsChecked(), 0u) << name;
        EXPECT_TRUE(m.mem().validateCoherence().empty()) << name;
    }
}

TEST_P(ProtocolComboSweep, TwentySeedStressRunsClean)
{
    const auto& [protocol, dirFormat] = GetParam();
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        check::StressOptions opt;
        opt.seed = seed;
        opt.procs = 8;
        opt.opsPerProc = 150;
        opt.validateEvery = 256;
        ASSERT_TRUE(opt.machine.protocol.parse(protocol));
        ASSERT_TRUE(opt.machine.dirFormat.parse(dirFormat));
        const check::StressReport rep = check::runStress(opt);
        if (rep.failed) {
            // A failing seed ships its ddmin-shrunk witness in the
            // failure message so the bug is actionable from CI logs.
            const check::ShrinkResult sh =
                check::shrink(check::generate(opt), opt);
            FAIL() << protocol << "/" << dirFormat << " seed " << seed
                   << ": " << rep.message << "\nshrunk witness ("
                   << sh.opsAfter << " ops):\n"
                   << check::formatWitness(sh.program);
        }
        EXPECT_GT(rep.commits, 0u);
    }
}

TEST_P(ProtocolComboSweep, AllAppsAreRaceFree)
{
    const auto& [protocol, dirFormat] = GetParam();
    const std::vector<analyze::AppRaceResult> results =
        analyze::analyzeAllApps(comboConfig(protocol, dirFormat));
    for (const analyze::AppRaceResult& r : results) {
        EXPECT_TRUE(r.races.empty())
            << protocol << "/" << dirFormat << " " << r.app << ": "
            << r.races.front().format();
        EXPECT_GT(r.stats.memOps, 0u) << r.app;
    }
}

INSTANTIATE_TEST_SUITE_P(NewCombos, ProtocolComboSweep,
                         ::testing::ValuesIn(kNewCombos),
                         [](const auto& info) {
                             std::string n = info.param.first + "_" +
                                             info.param.second;
                             for (auto& ch : n)
                                 if (ch == ':')
                                     ch = '_';
                             return n;
                         });

TEST(LegacyMesiSeam, StressReplaysBitIdenticallyThroughBothPaths)
{
    // The table-driven engine must be indistinguishable from the
    // historical hard-coded MESI path: full per-processor timing and
    // counter state (StressReport::stateHash) must match.
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
        check::StressOptions engine;
        engine.seed = seed;
        engine.procs = 8;
        engine.opsPerProc = 200;
        check::StressOptions legacy = engine;
        legacy.machine.check.legacyMesiPath = true;
        const check::StressReport a = check::runStress(engine);
        const check::StressReport b = check::runStress(legacy);
        EXPECT_FALSE(a.failed) << a.message;
        EXPECT_FALSE(b.failed) << b.message;
        EXPECT_EQ(a, b) << "seed " << seed;
    }
}

namespace {

/// One producer/consumer round per line: P0 writes, then (barrier)
/// P1 reads, then (barrier) P2 reads, then (barrier) P0 writes again,
/// then (barrier) P1 reads again.
sim::RunResult
runSharingLitmus(sim::MachineConfig cfg, int lines = 8,
                 sim::Addr* baseOut = nullptr)
{
    cfg.trace.sharing = true;
    sim::Machine m(cfg);
    const sim::Addr base = m.alloc(
        static_cast<std::uint64_t>(lines) * cfg.lineBytes);
    if (baseOut)
        *baseOut = base;
    const sim::BarrierId bar = m.barrierCreate();
    return m.run([&, lines](sim::Cpu& cpu) -> sim::Task {
        const auto addr = [&](int i) {
            return base + static_cast<sim::Addr>(i) * cfg.lineBytes;
        };
        const auto step = [&](int writer, bool write) -> void {
            if (cpu.id() == writer)
                for (int i = 0; i < lines; ++i)
                    write ? cpu.write(addr(i)) : cpu.read(addr(i));
        };
        step(0, true);
        co_await cpu.barrier(bar);
        step(1, false);
        co_await cpu.barrier(bar);
        step(2, false);
        co_await cpu.barrier(bar);
        step(0, true);
        co_await cpu.barrier(bar);
        step(1, false);
        co_return;
    });
}

} // namespace

TEST(ProtocolLitmus, MoesiOwnerKeepsForwardingWithoutWriteback)
{
    const int lines = 8;
    const sim::RunResult mesi =
        runSharingLitmus(comboConfig("mesi", "fullbv"), lines);
    const sim::RunResult moesi =
        runSharingLitmus(comboConfig("moesi", "fullbv"), lines);

    // MESI: P1's read downgrades the dirty line with a memory
    // writeback, so P2's read is a *clean* remote miss. MOESI: the
    // owner keeps the only up-to-date copy and serves P2 too.
    EXPECT_EQ(mesi.totals().missRemoteDirty,
              static_cast<std::uint64_t>(2 * lines));
    EXPECT_EQ(mesi.totals().missRemoteClean,
              static_cast<std::uint64_t>(lines));
    EXPECT_EQ(moesi.totals().missRemoteDirty,
              static_cast<std::uint64_t>(3 * lines));
    EXPECT_EQ(moesi.totals().missRemoteClean, 0u);
    // Both are invalidation protocols: P0's second write kills the
    // reader copies either way.
    EXPECT_GT(moesi.totals().invalsSent, 0u);
    EXPECT_EQ(moesi.totals().updatesSent, 0u);
}

TEST(ProtocolLitmus, DragonUpdatesInsteadOfInvalidating)
{
    const int lines = 8;
    const sim::RunResult mesi =
        runSharingLitmus(comboConfig("mesi", "fullbv"), lines);
    const sim::RunResult dragon =
        runSharingLitmus(comboConfig("dragon", "fullbv"), lines);

    // Dragon never invalidates: P0's second write pushes updates into
    // P1/P2's copies, and P1's final re-read hits in its own cache.
    EXPECT_EQ(dragon.totals().invalsSent, 0u);
    EXPECT_EQ(dragon.totals().invalsReceived, 0u);
    EXPECT_EQ(dragon.totals().updatesSent,
              static_cast<std::uint64_t>(2 * lines));
    EXPECT_GT(mesi.totals().invalsSent, 0u);
    EXPECT_EQ(mesi.totals().updatesSent, 0u);
    // The refreshed copy turns P1's final pass into pure cache hits.
    EXPECT_EQ(dragon.procs[1].c.misses(),
              static_cast<std::uint64_t>(lines));
    EXPECT_EQ(mesi.procs[1].c.misses(),
              static_cast<std::uint64_t>(2 * lines));
}

TEST(DirectoryFormats, CoarseVectorOverInvalidatesWithinTheRegion)
{
    // 8 processors, regions of 4: P1 is the only sharer, but the
    // coarse vector can only say "someone in procs 0..3", so P0's
    // upgrade also signals P2 and P3 — spuriously.
    const int lines = 8;
    sim::Addr base = 0;
    const std::uint32_t lineBytes =
        sim::MachineConfig::origin2000(8).lineBytes;
    const sim::RunResult exact =
        runSharingLitmus(comboConfig("mesi", "fullbv", 8), lines, &base);
    const sim::RunResult coarse =
        runSharingLitmus(comboConfig("mesi", "coarse:4", 8), lines);

    EXPECT_EQ(exact.totals().invalsSpurious, 0u);
    EXPECT_GT(coarse.totals().invalsSpurious, 0u);
    // Real invalidations (and the copies they destroy) are identical:
    // over-signalling costs messages, not correctness.
    EXPECT_EQ(coarse.totals().invalsSent, exact.totals().invalsSent);
    EXPECT_EQ(coarse.totals().invalsReceived,
              exact.totals().invalsReceived);
    // The obs sharing profiler attributes only *real* invalidations
    // to the line — spurious fan-out must not inflate the paper's
    // sharing statistics.
    ASSERT_TRUE(exact.trace && coarse.trace);
    for (int i = 0; i < lines; ++i) {
        const sim::LineAddr line =
            base + static_cast<sim::Addr>(i) * lineBytes;
        EXPECT_GT(exact.trace->sharing().report(line).invalidations, 0u)
            << "line " << i;
        EXPECT_EQ(coarse.trace->sharing().report(line).invalidations,
                  exact.trace->sharing().report(line).invalidations)
            << "line " << i;
    }
}

TEST(DirectoryFormats, LimitedPointerOverflowBroadcasts)
{
    // ptr:1 with two readers: the second read overflows the pointer
    // set, so the next invalidation broadcasts to every processor —
    // including P3, which never touched the line.
    const int lines = 8;
    const sim::RunResult exact =
        runSharingLitmus(comboConfig("mesi", "fullbv"), lines);
    const sim::RunResult ptr =
        runSharingLitmus(comboConfig("mesi", "ptr:1"), lines);

    EXPECT_EQ(exact.totals().invalsSpurious, 0u);
    EXPECT_GT(ptr.totals().invalsSpurious, 0u);
    EXPECT_EQ(ptr.totals().invalsSent, exact.totals().invalsSent);
    EXPECT_EQ(ptr.totals().invalsReceived,
              exact.totals().invalsReceived);

    // A generous pointer budget never overflows on this program.
    const sim::RunResult wide =
        runSharingLitmus(comboConfig("mesi", "ptr:8"), lines);
    EXPECT_EQ(wide.totals().invalsSpurious, 0u);
}

TEST(DirectoryFormats, PointerOverflowBroadcastsDragonUpdatesToo)
{
    // Overflow-broadcast composes with an *update* protocol: after
    // the second reader overflows ptr:1, P0's second write pushes its
    // Dragon update to every processor — P3's copy-less update is
    // spurious traffic, while the real updates (and the cache hits
    // they enable) match the exact-sharer machine bit for bit.
    const int lines = 8;
    const sim::RunResult exact =
        runSharingLitmus(comboConfig("dragon", "fullbv"), lines);
    const sim::RunResult ptr =
        runSharingLitmus(comboConfig("dragon", "ptr:1"), lines);

    EXPECT_EQ(exact.totals().invalsSpurious, 0u);
    EXPECT_GT(ptr.totals().invalsSpurious, 0u);
    EXPECT_EQ(ptr.totals().updatesSent, exact.totals().updatesSent);
    EXPECT_EQ(ptr.totals().updatesReceived,
              exact.totals().updatesReceived);
    // Dragon stays an update protocol under overflow: broadcasting
    // must not turn updates into invalidations.
    EXPECT_EQ(exact.totals().invalsSent, 0u);
    EXPECT_EQ(ptr.totals().invalsSent, 0u);
    EXPECT_EQ(ptr.totals().invalsReceived, 0u);
    // The refreshed copies still serve P1's final pass from cache.
    EXPECT_EQ(ptr.procs[1].c.misses(), exact.procs[1].c.misses());

    // ptr:4 holds all three sharers of this program: no overflow, no
    // spurious fan-out.
    const sim::RunResult wide =
        runSharingLitmus(comboConfig("dragon", "ptr:4"), lines);
    EXPECT_EQ(wide.totals().invalsSpurious, 0u);
    EXPECT_EQ(wide.totals().updatesSent, exact.totals().updatesSent);
}

TEST(DirectoryFormats, CompressedFormatsStayCoherentUnderTheOracle)
{
    // Spurious fan-out must never touch cache contents: an oracle-
    // checked stress run over both compressed formats stays clean.
    for (const char* fmt : {"coarse:2", "ptr:1"}) {
        check::StressOptions opt;
        opt.seed = 11;
        opt.procs = 8;
        opt.opsPerProc = 200;
        ASSERT_TRUE(opt.machine.dirFormat.parse(fmt));
        const check::StressReport rep = check::runStress(opt);
        EXPECT_FALSE(rep.failed) << fmt << ": " << rep.message;
    }
}

TEST(ProtocolMutation, CorruptMoesiTableIsCaughtAndShrinks)
{
    // The tables are consulted, not decoration: zero out the
    // remote-write x Shared cell of this machine's private MOESI copy
    // (stores stop invalidating sharers) and the SC oracle must catch
    // the stale copies, with a small ddmin witness.
    check::StressOptions opt;
    opt.seed = 1;
    opt.procs = 8;
    opt.opsPerProc = 250;
    ASSERT_TRUE(opt.machine.protocol.parse("moesi"));
    opt.mutation = sim::CheckMutation::CorruptMoesiTable;

    const check::StressReport rep = check::runStress(opt);
    ASSERT_TRUE(rep.failed) << "corrupted table went undetected";
    EXPECT_GT(rep.failCommit, 0u);

    const check::StressReport replay = check::runStress(opt);
    EXPECT_TRUE(replay == rep);

    const check::ShrinkResult sh =
        check::shrink(check::generate(opt), opt);
    EXPECT_TRUE(sh.report.failed);
    EXPECT_LE(sh.opsAfter, 50u);

    // The same machine with an uncorrupted table is clean.
    check::StressOptions clean = opt;
    clean.mutation = sim::CheckMutation::None;
    EXPECT_FALSE(check::runStress(clean).failed);
}
