/**
 * @file
 * JSON-validity and schema tests for the metrics the simulator emits:
 * the strict check::json parser itself (duplicate keys, NaN/Infinity,
 * trailing garbage, exact uint64 round-trips), and every MetricsSink
 * document — including a StudyResult's, and ones fed non-finite
 * scalars and repeated keys, which must still come out as valid JSON.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/registry.hh"
#include "check/json.hh"
#include "core/metrics.hh"
#include "core/study_runner.hh"
#include "sim/machine.hh"

using namespace ccnuma;
using check::json::Value;

namespace {

std::string
tempPath(const char* name)
{
    return ::testing::TempDir() + name;
}

std::string
slurp(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/// A tiny real run so the sink has genuine breakdown/counter content.
sim::RunResult
tinyRun()
{
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(2);
    sim::Machine m(cfg);
    const sim::Addr a = m.alloc(8 * cfg.lineBytes);
    return m.run([&](sim::Cpu& cpu) -> sim::Task {
        for (int i = 0; i < 8; ++i) {
            cpu.read(a + static_cast<sim::Addr>(i) * cfg.lineBytes);
            cpu.write(a + static_cast<sim::Addr>(i) * cfg.lineBytes);
        }
        cpu.busy(100);
        co_return;
    });
}

} // namespace

TEST(StrictJson, AcceptsWellFormedDocuments)
{
    const auto r = check::json::parse(
        R"({"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5e3}})");
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.root.isObject());
    EXPECT_EQ(r.root.find("a")->asU64(), 1u);
    EXPECT_EQ(r.root.find("b")->arr.size(), 3u);
    EXPECT_EQ(r.root.find("b")->arr[2].str, "x\n");
    EXPECT_DOUBLE_EQ(r.root.find("c")->find("d")->asDouble(), -2500.0);
}

TEST(StrictJson, RejectsDuplicateKeys)
{
    const auto r = check::json::parse(R"({"k": 1, "k": 2})");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("duplicate"), std::string::npos) << r.error;
}

TEST(StrictJson, RejectsNaNAndInfinity)
{
    for (const char* doc :
         {R"({"v": NaN})", R"({"v": Infinity})", R"({"v": -Infinity})",
          R"([nan])"}) {
        const auto r = check::json::parse(doc);
        EXPECT_FALSE(r.ok) << doc;
    }
}

TEST(StrictJson, RejectsTrailingGarbageAndMalformedNumbers)
{
    EXPECT_FALSE(check::json::parse(R"({"a": 1} extra)").ok);
    EXPECT_FALSE(check::json::parse(R"({"a": 1.})").ok);
    EXPECT_FALSE(check::json::parse(R"({"a": 1e})").ok);
    EXPECT_FALSE(check::json::parse(R"({"a": })").ok);
    EXPECT_FALSE(check::json::parse("").ok);
    EXPECT_FALSE(check::json::parse(R"({"a": 01]})").ok);
}

TEST(StrictJson, Uint64RoundTripsExactly)
{
    // 2^64 - 1 is not representable in a double; the raw-text path
    // must preserve it anyway.
    const auto r =
        check::json::parse(R"({"cycles": 18446744073709551615})");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.root.find("cycles")->asU64(), 18446744073709551615ull);
    std::uint64_t out = 7;
    EXPECT_TRUE(r.root.find("cycles")->asCount(out));
    EXPECT_EQ(out, 18446744073709551615ull);

    // Valid JSON that is not a count: asCount refuses it and leaves
    // `out` alone, and asU64 reads 0 instead of wrapping (-3 as
    // 2^64-3), truncating (1.5 and 1e3 as 1) or saturating (2^64).
    for (const char* v : {"-3", "-0", "1.5", "1e3", "2E1", "10.0",
                          "18446744073709551616", "\"42\"", "null"}) {
        const auto p = check::json::parse(std::string("[") + v + "]");
        ASSERT_TRUE(p.ok) << v << ": " << p.error;
        out = 7;
        EXPECT_FALSE(p.root.arr[0].asCount(out)) << v;
        EXPECT_EQ(out, 7u) << v;
        EXPECT_EQ(p.root.arr[0].asU64(), 0u) << v;
    }
}

TEST(MetricsSchema, SinkOutputIsValidAndComplete)
{
    const std::string path = tempPath("metrics_schema.json");
    core::MetricsSink sink(path);
    const sim::RunResult r = tinyRun();
    sink.add("run-a", r);
    sink.addScalar("run-a", "speedup", 1.5);
    sink.addScalar("scalar-only", "efficiency", 0.75);
    sink.addText("run-a", "protocol", "moesi \"v2\"");
    sink.addCount("run-a", "states", 18446744073709551615ull);
    ASSERT_TRUE(sink.write());

    const auto doc = check::json::parseFile(path);
    ASSERT_TRUE(doc.ok) << doc.error;
    const Value* runs = doc.root.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_TRUE(runs->isArray());
    ASSERT_EQ(runs->arr.size(), 2u);

    const Value& a = runs->arr[0];
    EXPECT_EQ(a.find("label")->str, "run-a");
    EXPECT_DOUBLE_EQ(a.find("speedup")->asDouble(), 1.5);
    ASSERT_NE(a.find("protocol"), nullptr);
    EXPECT_TRUE(a.find("protocol")->isString());
    EXPECT_EQ(a.find("protocol")->str, "moesi \"v2\"");
    ASSERT_NE(a.find("states"), nullptr);
    EXPECT_TRUE(a.find("states")->isNumber());
    EXPECT_EQ(a.find("states")->asU64(), 18446744073709551615ull);
    EXPECT_GT(a.find("runCycles")->asU64(), 0u);
    const Value* totals = a.find("totals");
    ASSERT_NE(totals, nullptr);
    for (const char* key :
         {"loads", "stores", "l2Hits", "missLocal", "missRemoteClean",
          "missRemoteDirty", "upgrades", "invalsSent", "writebacks",
          "lockAcquires", "barriersPassed"})
        EXPECT_NE(totals->find(key), nullptr) << key;
    const Value* breakdown = a.find("breakdown");
    ASSERT_NE(breakdown, nullptr);
    const double sum = breakdown->find("busy")->asDouble() +
                       breakdown->find("mem")->asDouble() +
                       breakdown->find("sync")->asDouble();
    EXPECT_NEAR(sum, 1.0, 1e-9);
    std::remove(path.c_str());
}

TEST(MetricsSchema, StudyEntryCountsRunsFailuresAndInputs)
{
    // Two volrend cells (each with its own baseline, so four setups
    // reading one shared input) and one cell whose factory throws.
    core::StudyPlan plan;
    for (const int procs : {2, 4})
        plan.add("volrend P=" + std::to_string(procs),
                 sim::MachineConfig::origin2000(procs),
                 [] { return apps::makeApp("volrend", 32); });
    plan.add("broken", sim::MachineConfig::origin2000(2),
             []() -> apps::AppPtr { throw std::runtime_error("no"); });
    core::StudyRunner runner({.jobs = 2});
    const core::StudyResult res = runner.run(plan);

    const std::string path = tempPath("metrics_study.json");
    core::MetricsSink sink(path);
    res.emit(sink);
    ASSERT_TRUE(sink.write());
    const auto doc = check::json::parseFile(path);
    ASSERT_TRUE(doc.ok) << doc.error;
    const Value* study = nullptr;
    for (const Value& r : doc.root.find("runs")->arr)
        if (r.find("label")->str == "_study")
            study = &r;
    ASSERT_NE(study, nullptr);
    for (const char* key : {"wallSeconds", "jobs", "runs", "failures",
                            "inputsBuilt", "inputsReused"}) {
        ASSERT_NE(study->find(key), nullptr) << key;
        EXPECT_TRUE(study->find(key)->isNumber()) << key;
    }
    EXPECT_EQ(study->find("jobs")->asU64(), 2u);
    EXPECT_EQ(study->find("runs")->asU64(), 3u);
    EXPECT_EQ(study->find("failures")->asU64(), 1u);
    EXPECT_EQ(study->find("inputsBuilt")->asU64(), 1u);
    EXPECT_EQ(study->find("inputsReused")->asU64(), 3u);
    std::remove(path.c_str());
}

TEST(MetricsSchema, NonFiniteScalarsNeverLeakIntoTheDocument)
{
    const std::string path = tempPath("metrics_nonfinite.json");
    core::MetricsSink sink(path);
    sink.addScalar("bad", "nan_speedup", std::nan(""));
    sink.addScalar("bad", "inf_speedup",
                   std::numeric_limits<double>::infinity());
    ASSERT_TRUE(sink.write());

    const std::string text = slurp(path);
    EXPECT_EQ(text.find("NaN"), std::string::npos);
    EXPECT_EQ(text.find("Infinity"), std::string::npos);
    EXPECT_EQ(text.find(": nan"), std::string::npos);
    EXPECT_EQ(text.find(": inf"), std::string::npos)
        << "raw non-finite token leaked";
    const auto doc = check::json::parseFile(path);
    ASSERT_TRUE(doc.ok) << doc.error;
    // The writer degrades non-finite values to null.
    const Value& bad = doc.root.find("runs")->arr[0];
    EXPECT_EQ(bad.find("nan_speedup")->kind, Value::Kind::Null);
    EXPECT_EQ(bad.find("inf_speedup")->kind, Value::Kind::Null);
    std::remove(path.c_str());
}

TEST(MetricsSchema, RepeatedScalarKeysDoNotEmitDuplicates)
{
    const std::string path = tempPath("metrics_dupkeys.json");
    core::MetricsSink sink(path);
    sink.addScalar("r", "speedup", 1.0);
    sink.addScalar("r", "speedup", 2.0); // overwrite, not append
    ASSERT_TRUE(sink.write());

    const auto doc = check::json::parseFile(path);
    ASSERT_TRUE(doc.ok) << doc.error << " (duplicate key emitted?)";
    EXPECT_DOUBLE_EQ(
        doc.root.find("runs")->arr[0].find("speedup")->asDouble(), 2.0);
    std::remove(path.c_str());
}
