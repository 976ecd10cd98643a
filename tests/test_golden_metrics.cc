/**
 * @file
 * Golden-metrics regression gate. Recomputes the small-config snapshot
 * for every registered application and diffs it against the committed
 * baseline in tests/golden/ (path injected as CCNUMA_GOLDEN_DIR). A
 * diff means simulated behaviour changed: if intentional, re-bless
 * with `ccnuma_verify golden --bless`; if not, it just caught a
 * regression. Also covers the snapshot machinery itself (JSON
 * round-trip, diff detection, error paths).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "apps/registry.hh"
#include "check/golden.hh"

using namespace ccnuma;

namespace {

std::string
baselinePath()
{
    return std::string(CCNUMA_GOLDEN_DIR) + "/metrics-v1.json";
}

} // namespace

TEST(GoldenMetrics, SnapshotRoundTripsThroughJson)
{
    // A single cheap app keeps this unit test fast; the full-suite
    // regression below reuses one shared snapshot.
    check::GoldenSnapshot snap;
    snap.procs = 4;
    check::GoldenEntry e;
    e.name = "fft";
    e.size = 1u << 14;
    e.seqTime = 18446744073709551615ull; // not double-representable
    e.parTime = 123456789;
    e.speedup = 3.14159265358979;
    e.loads = 42;
    snap.entries.push_back(e);

    const std::string path =
        ::testing::TempDir() + "golden_roundtrip.json";
    std::string err;
    ASSERT_TRUE(check::writeGoldenFile(path, snap, err)) << err;
    check::GoldenSnapshot loaded;
    ASSERT_TRUE(check::loadGoldenFile(path, loaded, err)) << err;
    EXPECT_TRUE(check::diffGolden(snap, loaded).empty());
    EXPECT_EQ(loaded.entries[0].seqTime, 18446744073709551615ull)
        << "uint64 cycle count did not round-trip exactly";
    std::remove(path.c_str());
}

TEST(GoldenMetrics, DiffDetectsEveryKindOfChange)
{
    check::GoldenSnapshot base;
    check::GoldenEntry e;
    e.name = "fft";
    e.parTime = 100;
    e.speedup = 2.0;
    e.missRemoteDirty = 7;
    base.entries.push_back(e);

    check::GoldenSnapshot cur = base;
    EXPECT_TRUE(check::diffGolden(base, cur).empty());

    cur.entries[0].parTime = 101;
    EXPECT_EQ(check::diffGolden(base, cur).size(), 1u);
    cur = base;
    cur.entries[0].missRemoteDirty = 8;
    EXPECT_EQ(check::diffGolden(base, cur).size(), 1u);
    cur = base;
    cur.entries[0].speedup = 2.0001;
    EXPECT_EQ(check::diffGolden(base, cur).size(), 1u);
    cur = base;
    cur.entries.clear();
    EXPECT_EQ(check::diffGolden(base, cur).size(), 1u) << "missing app";
    cur = base;
    check::GoldenEntry extra;
    extra.name = "brand-new-app";
    cur.entries.push_back(extra);
    EXPECT_EQ(check::diffGolden(base, cur).size(), 1u) << "extra app";
}

TEST(GoldenMetrics, LoaderRejectsBadBaselines)
{
    check::GoldenSnapshot out;
    std::string err;
    EXPECT_FALSE(
        check::loadGoldenFile("/nonexistent/golden.json", out, err));

    const std::string path = ::testing::TempDir() + "golden_bad.json";
    auto tryLoad = [&](const std::string& text) {
        std::ofstream(path) << text;
        return check::loadGoldenFile(path, out, err);
    };
    EXPECT_FALSE(tryLoad("{not json"));
    EXPECT_FALSE(tryLoad(R"({"schema": "something-else"})"));
    EXPECT_FALSE(tryLoad(
        R"({"schema": "ccnuma-golden-metrics", "version": 99,
            "procs": 4, "apps": []})"))
        << "unknown version must be rejected";
    EXPECT_FALSE(tryLoad(
        R"({"schema": "ccnuma-golden-metrics", "version": 1,
            "procs": 4, "apps": [{"name": "fft"}]})"))
        << "incomplete entry must be rejected";
    EXPECT_FALSE(tryLoad(
        R"({"schema": "ccnuma-golden-metrics", "version": 1,
            "procs": 4, "apps": [{"name": "fft", "size": 64,
            "seqTime": -1, "parTime": 10, "speedup": 1.0,
            "counters": {}}]})"))
        << "a negative count must be rejected, not wrapped";
    EXPECT_NE(err.find("app fft: seqTime is missing or not a count"),
              std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(GoldenMetrics, CurrentBehaviourMatchesCommittedBaseline)
{
    check::GoldenSnapshot baseline;
    std::string err;
    ASSERT_TRUE(check::loadGoldenFile(baselinePath(), baseline, err))
        << err
        << "\n(generate the baseline with `ccnuma_verify golden "
           "--bless`)";

    // The baseline must cover every registered app, so adding an app
    // without re-blessing fails here too.
    EXPECT_EQ(baseline.entries.size(), apps::listApps().size());

    const check::GoldenSnapshot current =
        check::computeGolden(baseline.procs);
    const std::vector<std::string> diffs =
        check::diffGolden(baseline, current);
    std::string all;
    for (const std::string& d : diffs)
        all += "  " + d + "\n";
    EXPECT_TRUE(diffs.empty())
        << "simulated behaviour diverged from tests/golden/"
           "metrics-v1.json:\n"
        << all
        << "re-bless with `ccnuma_verify golden --bless` if this "
           "change is intentional";
}
