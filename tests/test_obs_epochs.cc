/**
 * @file
 * Integration tests for the interval-metrics layer: the per-counter sum
 * over all epochs must equal the run's aggregate totals exactly, traced
 * runs must be cycle-identical to untraced ones, and both exporters
 * must emit syntactically valid JSON.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>
#include <string>

#include "apps/registry.hh"
#include "core/study.hh"
#include "obs/export.hh"
#include "sim/machine.hh"

using namespace ccnuma;
using namespace ccnuma::sim;

namespace {

/**
 * Minimal recursive-descent JSON syntax checker, enough to certify the
 * exporters' output (objects, arrays, strings with escapes, numbers,
 * true/false/null) without pulling in a JSON library.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string& s) : s_(s) {}

    bool
    valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return literal("true");
        case 'f': return literal("false");
        case 'n': return literal("null");
        default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        ws();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            ws();
            if (!string())
                return false;
            ws();
            if (peek() != ':')
                return false;
            ++pos_;
            ws();
            if (!value())
                return false;
            ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        ws();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            ws();
            if (!value())
                return false;
            ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char: invalid
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_])))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        return false; // unterminated
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start &&
               std::isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
    }

    bool
    literal(const char* lit)
    {
        for (const char* p = lit; *p; ++p, ++pos_)
            if (pos_ >= s_.size() || s_[pos_] != *p)
                return false;
        return true;
    }

    void
    ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string& s_;
    std::size_t pos_ = 0;
};

/// A small program touching every counter class: demand misses,
/// prefetches, a contended shared line (upgrades + invalidations +
/// dirty misses), a lock and several barriers.
struct Workout {
    MachineConfig cfg;
    Addr arr = 0, shared = 0;
    BarrierId bar{};
    LockId lk{};

    explicit Workout(bool traced)
    {
        cfg.numProcs = 8;
        cfg.trace.epochCycles = 2000; // force many epochs
        if (traced) {
            cfg.trace.events = true;
            cfg.trace.intervals = true;
            cfg.trace.sharing = true;
        }
    }

    RunResult
    run()
    {
        Machine m(cfg);
        arr = m.alloc(1u << 16);
        m.placeAcrossProcs(arr, 1u << 16);
        shared = m.allocLine();
        bar = m.barrierCreate();
        lk = m.lockCreate();
        const Addr a = arr, s = shared;
        const BarrierId b = bar;
        const LockId l = lk;
        return m.run([a, s, b, l](Cpu& cpu) -> Task {
            const Addr mine = a + cpu.id() * 8192;
            for (Addr off = 0; off < 8192; off += 128) {
                cpu.prefetch(mine + off);
                cpu.busy(20);
                cpu.write(mine + off);
                co_await cpu.checkpoint();
            }
            co_await cpu.barrier(b);
            for (int round = 0; round < 4; ++round) {
                cpu.read(s);
                cpu.write(s + (cpu.id() % 2) * 8);
                co_await cpu.barrier(b);
            }
            for (int i = 0; i < 3; ++i) {
                co_await cpu.acquire(l);
                cpu.busy(50);
                cpu.release(l);
                co_await cpu.checkpoint();
            }
            co_await cpu.barrier(b);
            co_return;
        });
    }
};

ProcTimes
sumProcTimes(const RunResult& r)
{
    ProcTimes sum;
    for (const ProcStats& p : r.procs) {
        sum.busy += p.t.busy;
        sum.memStall += p.t.memStall;
        sum.syncWait += p.t.syncWait;
        sum.syncOp += p.t.syncOp;
    }
    return sum;
}

void
expectCountersEqual(const ProcCounters& a, const ProcCounters& b)
{
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.missLocal, b.missLocal);
    EXPECT_EQ(a.missRemoteClean, b.missRemoteClean);
    EXPECT_EQ(a.missRemoteDirty, b.missRemoteDirty);
    EXPECT_EQ(a.upgrades, b.upgrades);
    EXPECT_EQ(a.invalsSent, b.invalsSent);
    EXPECT_EQ(a.invalsReceived, b.invalsReceived);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.prefetchesUseful, b.prefetchesUseful);
    EXPECT_EQ(a.pageMigrations, b.pageMigrations);
    EXPECT_EQ(a.lockAcquires, b.lockAcquires);
    EXPECT_EQ(a.barriersPassed, b.barriersPassed);
}

} // namespace

TEST(JsonCheckerSelfTest, AcceptsValidRejectsInvalid)
{
    EXPECT_TRUE(JsonChecker(R"({"a": [1, 2.5, -3e4], "b": "x\n"})")
                    .valid());
    EXPECT_TRUE(JsonChecker("[]").valid());
    EXPECT_TRUE(JsonChecker("{\"k\": null}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\": }").valid());
    EXPECT_FALSE(JsonChecker("[1, 2,]").valid());
    EXPECT_FALSE(JsonChecker("{\"a\": 1} trailing").valid());
    EXPECT_FALSE(JsonChecker("\"unterminated").valid());
}

TEST(ObsEpochs, SumOfEpochsEqualsRunTotals)
{
    Workout w(/*traced=*/true);
    const RunResult r = w.run();
    ASSERT_NE(r.trace, nullptr);
    const ProcCounters totals = r.totals();

    // The workout exercises every class of event it claims to.
    EXPECT_GT(totals.missLocal + totals.missRemoteClean, 0u);
    EXPECT_GT(totals.missRemoteDirty, 0u);
    EXPECT_GT(totals.upgrades, 0u);
    EXPECT_GT(totals.invalsSent, 0u);
    EXPECT_GT(totals.prefetchesIssued, 0u);
    EXPECT_GT(totals.lockAcquires, 0u);
    EXPECT_GT(totals.barriersPassed, 0u);

    expectCountersEqual(r.trace->epochs().sumCounters(), totals);

    const ProcTimes et = r.trace->epochs().sumTimes();
    const ProcTimes rt = sumProcTimes(r);
    EXPECT_EQ(et.busy, rt.busy);
    EXPECT_EQ(et.memStall, rt.memStall);
    EXPECT_EQ(et.syncWait, rt.syncWait);
    EXPECT_EQ(et.syncOp, rt.syncOp);

    // Events were captured without overflow at the default capacity,
    // and the series is genuinely sliced (not one giant epoch).
    EXPECT_GT(r.trace->events().recorded(), 0u);
    EXPECT_EQ(r.trace->events().dropped(), 0u);
    EXPECT_GE(r.trace->epochs().numEpochs(), 2u);
    EXPECT_LE(r.trace->epochs().numEpochs(),
              r.time / r.trace->epochs().epochCycles() + 1);
}

TEST(ObsEpochs, SumOfEpochsEqualsRunTotalsOnRegistryApp)
{
    MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.trace.events = true;
    cfg.trace.intervals = true;
    cfg.trace.sharing = true;
    cfg.trace.epochCycles = 50000;
    auto app = apps::makeApp("fft", 1u << 14);
    const RunResult r = core::runApp(cfg, *app);
    ASSERT_NE(r.trace, nullptr);
    expectCountersEqual(r.trace->epochs().sumCounters(), r.totals());
    const ProcTimes et = r.trace->epochs().sumTimes();
    const ProcTimes rt = sumProcTimes(r);
    EXPECT_EQ(et.busy, rt.busy);
    EXPECT_EQ(et.memStall, rt.memStall);
    EXPECT_EQ(et.syncWait, rt.syncWait);
    EXPECT_EQ(et.syncOp, rt.syncOp);
}

TEST(ObsEpochs, TracingIsCycleIdentical)
{
    Workout off(/*traced=*/false);
    const RunResult r_off = off.run();
    EXPECT_EQ(r_off.trace, nullptr);

    Workout on(/*traced=*/true);
    const RunResult r_on = on.run();

    EXPECT_EQ(r_on.time, r_off.time)
        << "tracing must never perturb simulated time";
    expectCountersEqual(r_on.totals(), r_off.totals());
    const ProcTimes t_on = sumProcTimes(r_on);
    const ProcTimes t_off = sumProcTimes(r_off);
    EXPECT_EQ(t_on.busy, t_off.busy);
    EXPECT_EQ(t_on.memStall, t_off.memStall);
    EXPECT_EQ(t_on.syncWait, t_off.syncWait);
    EXPECT_EQ(t_on.syncOp, t_off.syncOp);
}

TEST(ObsEpochs, HistogramsCoverDemandMisses)
{
    Workout w(/*traced=*/true);
    const RunResult r = w.run();
    ASSERT_NE(r.trace, nullptr);
    const ProcCounters totals = r.totals();
    const auto& hl = r.trace->histLocal();
    const auto& hc = r.trace->histRemoteClean();
    const auto& hd = r.trace->histRemoteDirty();
    // Prefetch-folded misses bypass the histograms, so demand misses
    // bound the sample counts from above.
    EXPECT_LE(hl.count(), totals.missLocal);
    EXPECT_LE(hc.count(), totals.missRemoteClean);
    EXPECT_LE(hd.count(), totals.missRemoteDirty);
    EXPECT_GT(hd.count(), 0u) << "the shared line forces dirty misses";
    EXPECT_GE(hd.mean(), static_cast<double>(hd.min()));
    EXPECT_LE(hd.mean(), static_cast<double>(hd.max()));
    EXPECT_GE(hd.quantile(0.95), hd.quantile(0.5));
}

TEST(ObsExport, ChromeTraceIsValidJson)
{
    Workout w(/*traced=*/true);
    const RunResult r = w.run();
    ASSERT_NE(r.trace, nullptr);
    std::ostringstream os;
    obs::writeChromeTrace(os, *r.trace);
    const std::string doc = os.str();
    EXPECT_TRUE(JsonChecker(doc).valid()) << "invalid Chrome trace JSON";
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(doc.find("thread_name"), std::string::npos);
    EXPECT_NE(doc.find("miss_remote_dirty"), std::string::npos);
}

TEST(ObsExport, MetricsJsonIsValidAndEchoesTotals)
{
    Workout w(/*traced=*/true);
    const RunResult r = w.run();
    ASSERT_NE(r.trace, nullptr);
    std::ostringstream os;
    obs::writeMetricsJson(os, *r.trace, &r);
    const std::string doc = os.str();
    EXPECT_TRUE(JsonChecker(doc).valid()) << "invalid metrics JSON";
    EXPECT_NE(doc.find("\"epochs\""), std::string::npos);
    EXPECT_NE(doc.find("\"latencyHistograms\""), std::string::npos);
    EXPECT_NE(doc.find("\"hotLines\""), std::string::npos);
    EXPECT_NE(doc.find("\"totals\""), std::string::npos);
    // The authoritative run time is echoed verbatim.
    EXPECT_NE(doc.find("\"runCycles\": " + std::to_string(r.time)),
              std::string::npos);
    // Without a RunResult the document still stands on its own.
    std::ostringstream os2;
    obs::writeMetricsJson(os2, *r.trace, nullptr);
    EXPECT_TRUE(JsonChecker(os2.str()).valid());
}
