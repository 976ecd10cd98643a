/**
 * @file
 * End-to-end checks for the non-default coherence protocols (MOESI,
 * Dragon) and compressed directory formats (coarse:K, ptr:N):
 *
 *  - every new protocol x format combination runs the all-apps SC
 *    oracle sweep, a 20-seed stress sweep and a race-free app sweep
 *    clean;
 *  - pinned stress digests (cycles, counters, final directory state)
 *    fix every protocol x format's exact outcome on fixed seeds;
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

#include <cstdio>
#include <string>

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

namespace {

/// One pinned stress run: check::runStress on the default stress
/// machine under (protocol, dirFormat), and the outcome it must
/// reproduce exactly. The stateHash covers every processor's times
/// and counters and the final directory state (see StressReport).
struct Digest {
    const char* protocol;
    const char* dirFormat;
    std::uint64_t seed;
    int procs;
    int opsPerProc;
    std::uint64_t validateEvery;
    sim::Cycles finalTime;
    std::uint64_t commits;
    std::uint64_t stateHash;
};

// clang-format off
constexpr Digest kDigests[] = {
    // protocol, dir-format, seed, procs, opsPerProc, validateEvery,
    //     finalTime, commits, stateHash
    // MESI x fullbv, the corpus the hard-coded MESI path was
    // replayed against until it was deleted.
    {"mesi", "fullbv", 1, 8, 200, 512, 44370, 1478, 0xfef79064a85fb542ull},
    {"mesi", "fullbv", 7, 8, 200, 512, 40798, 1487, 0xe7a3e2dddb6b49b7ull},
    {"mesi", "fullbv", 42, 8, 200, 512, 45039, 1449, 0x478c2578a94d813cull},
    // MESI x fullbv with a coherence sweep every 64 commits, the
    // corpus the shadow directory map was checked against.
    {"mesi", "fullbv", 1, 8, 300, 64, 60185, 2200, 0x8abec9958660120dull},
    {"mesi", "fullbv", 2, 8, 300, 64, 61789, 2235, 0x93ab2a0a29a2203aull},
    {"mesi", "fullbv", 3, 8, 300, 64, 61548, 2213, 0x06aef4b64d007a81ull},
    {"mesi", "fullbv", 4, 8, 300, 64, 59643, 2200, 0xfbb657cdda7d5c62ull},
    {"mesi", "fullbv", 5, 8, 300, 64, 60291, 2205, 0x33e3c58da459006full},
    {"mesi", "fullbv", 6, 8, 300, 64, 61015, 2187, 0x827422b7ae206709ull},
    {"mesi", "fullbv", 7, 8, 300, 64, 60904, 2215, 0x09326869bcc5d035ull},
    {"mesi", "fullbv", 8, 8, 300, 64, 67592, 2219, 0xccab0bebe24e398full},
    {"mesi", "fullbv", 9, 8, 300, 64, 63205, 2234, 0xbf16af2c49016b11ull},
    {"mesi", "fullbv", 10, 8, 300, 64, 62253, 2190, 0xd076e8a9ef851dd8ull},
    {"mesi", "fullbv", 11, 8, 300, 64, 66480, 2204, 0xa9afef3624ff85a0ull},
    {"mesi", "fullbv", 12, 8, 300, 64, 61261, 2228, 0xab9762de000cedfaull},
    {"mesi", "fullbv", 13, 8, 300, 64, 65422, 2228, 0x16869c17b4cf6507ull},
    {"mesi", "fullbv", 14, 8, 300, 64, 61764, 2222, 0x93ddbc10ae8756a7ull},
    {"mesi", "fullbv", 15, 8, 300, 64, 70108, 2228, 0xa642b167913cd4a8ull},
    {"mesi", "fullbv", 16, 8, 300, 64, 67542, 2204, 0x3405f6f46707ab86ull},
    {"mesi", "fullbv", 17, 8, 300, 64, 61831, 2213, 0xce3916aeb6252fd3ull},
    {"mesi", "fullbv", 18, 8, 300, 64, 69495, 2242, 0x439afcf028e8aa41ull},
    {"mesi", "fullbv", 19, 8, 300, 64, 61541, 2191, 0x98185ffe747f0370ull},
    {"mesi", "fullbv", 20, 8, 300, 64, 63764, 2204, 0xd0e59dcf0ab34a83ull},
    // Every other shipped protocol x directory format.
    {"mesi", "coarse:4", 1, 8, 200, 512, 44271, 1476, 0xa076c3f527834502ull},
    {"mesi", "coarse:4", 7, 8, 200, 512, 41122, 1486, 0x757df540ae48e6fbull},
    {"mesi", "coarse:4", 42, 8, 200, 512, 46026, 1448, 0xa9a73f018568b0f0ull},
    {"mesi", "ptr:2", 1, 8, 200, 512, 44004, 1478, 0x94a23e6613515b85ull},
    {"mesi", "ptr:2", 7, 8, 200, 512, 41202, 1489, 0xb9278621e7f61bd7ull},
    {"mesi", "ptr:2", 42, 8, 200, 512, 45836, 1450, 0xb57db3f98bc15a2bull},
    {"moesi", "fullbv", 1, 8, 200, 512, 42465, 1479, 0x3289f56609fd3e71ull},
    {"moesi", "fullbv", 7, 8, 200, 512, 41321, 1489, 0x45cfb71bf148386cull},
    {"moesi", "fullbv", 42, 8, 200, 512, 44316, 1449, 0x60a425875b23adfbull},
    {"moesi", "coarse:4", 1, 8, 200, 512, 46485, 1479, 0x35448790fdc1e920ull},
    {"moesi", "coarse:4", 7, 8, 200, 512, 43900, 1489, 0xb1ce2dfd64b94294ull},
    {"moesi", "coarse:4", 42, 8, 200, 512, 47048, 1448, 0xa1ca354238ef2afcull},
    {"moesi", "ptr:2", 1, 8, 200, 512, 46010, 1479, 0x677968299846f25aull},
    {"moesi", "ptr:2", 7, 8, 200, 512, 42234, 1489, 0x71e8e8828bfe33a5ull},
    {"moesi", "ptr:2", 42, 8, 200, 512, 45600, 1446, 0xb8a70fbe061425e4ull},
    {"dragon", "fullbv", 1, 8, 200, 512, 37187, 1464, 0x58efe91bf0c5f7d7ull},
    {"dragon", "fullbv", 7, 8, 200, 512, 34167, 1458, 0x96713fde6ffe7cb2ull},
    {"dragon", "fullbv", 42, 8, 200, 512, 36324, 1435, 0xba4c5bd74165775bull},
    {"dragon", "coarse:4", 1, 8, 200, 512, 38337, 1464, 0xb3cd8c65a426b944ull},
    {"dragon", "coarse:4", 7, 8, 200, 512, 37611, 1458, 0x913c5cb7a50838ebull},
    {"dragon", "coarse:4", 42, 8, 200, 512, 40258, 1435, 0x635401797d0aed77ull},
    {"dragon", "ptr:2", 1, 8, 200, 512, 38691, 1464, 0x2866f22bbf17f2f4ull},
    {"dragon", "ptr:2", 7, 8, 200, 512, 35220, 1458, 0x0a651e3eb4f9ffa1ull},
    {"dragon", "ptr:2", 42, 8, 200, 512, 38475, 1435, 0xd77ca7fff3e5092dull},
};
// clang-format on

std::string
formatDigest(const Digest& d)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "    {\"%s\", \"%s\", %llu, %d, %d, %llu, %llu, %llu, "
                  "0x%016llxull},",
                  d.protocol, d.dirFormat,
                  static_cast<unsigned long long>(d.seed), d.procs,
                  d.opsPerProc,
                  static_cast<unsigned long long>(d.validateEvery),
                  static_cast<unsigned long long>(d.finalTime),
                  static_cast<unsigned long long>(d.commits),
                  static_cast<unsigned long long>(d.stateHash));
    return buf;
}

} // namespace

TEST(StressDigest, RunsMatchPinnedRows)
{
    // Cycles, counters and final directory state of every row are
    // frozen: a protocol or timing change that alters any of them
    // must be re-pinned by hand from the row printed below.
    for (const Digest& d : kDigests) {
        check::StressOptions opt;
        opt.seed = d.seed;
        opt.procs = d.procs;
        opt.opsPerProc = d.opsPerProc;
        opt.validateEvery = d.validateEvery;
        ASSERT_TRUE(opt.machine.protocol.parse(d.protocol));
        ASSERT_TRUE(opt.machine.dirFormat.parse(d.dirFormat));
        const check::StressReport rep = check::runStress(opt);
        EXPECT_FALSE(rep.failed) << formatDigest(d) << " " << rep.message;
        Digest got = d;
        got.finalTime = rep.finalTime;
        got.commits = rep.commits;
        got.stateHash = rep.stateHash;
        EXPECT_TRUE(got.finalTime == d.finalTime &&
                    got.commits == d.commits &&
                    got.stateHash == d.stateHash)
            << "pinned:\n" << formatDigest(d) << "\ngot:\n"
            << formatDigest(got);
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
