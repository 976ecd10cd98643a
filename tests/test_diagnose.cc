/**
 * @file
 * Tests for the scaling-loss diagnosis engine (ccnuma::diagnose).
 *
 * The engine's job is classification, so the core tests feed it
 * *synthetic pathologies* whose ground truth is known by construction:
 * a lock-convoy program must be diagnosed as lock serialization, a
 * barrier-imbalanced program as barrier imbalance. The rest pins the
 * contracts the CLI and CI lean on: the verdict JSON parses under the
 * repo's strict parser with the documented schema, repeated diagnoses
 * are byte-identical, the syncWait partition is exact on real apps,
 * and the HTML dashboard is self-contained.
 */

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "check/json.hh"
#include "diagnose/diagnose.hh"
#include "diagnose/html.hh"

namespace {

using namespace ccnuma;
using diagnose::AppDiagnosis;
using diagnose::Cause;
using diagnose::DiagnoseOptions;

// ---- synthetic pathologies ----

/// Every processor hammers one global lock with a long critical
/// section: textbook convoy, ~all scaling loss is lock serialization.
class LockConvoyApp final : public apps::App
{
  public:
    std::string name() const override { return "lock-convoy"; }

    void
    setup(sim::Machine& m) override
    {
        lock_ = m.lockCreate();
        counter_ = m.allocLine();
        bar_ = m.barrierCreate();
    }

    sim::Machine::Program
    program() override
    {
        const sim::LockId lock = lock_;
        const sim::BarrierId bar = bar_;
        const sim::Addr counter = counter_;
        return [=](sim::Cpu& cpu) -> sim::Task {
            for (int i = 0; i < 40; ++i) {
                co_await cpu.acquire(lock);
                cpu.read(counter);
                cpu.busy(400); // long critical section...
                // ...held across a scheduling point, so contenders
                // actually observe the lock taken and queue up.
                co_await cpu.checkpoint();
                cpu.write(counter);
                cpu.release(lock);
                co_await cpu.checkpoint();
            }
            co_await cpu.barrier(bar);
            co_return;
        };
    }

  private:
    sim::LockId lock_{};
    sim::BarrierId bar_{};
    sim::Addr counter_ = 0;
};

/// Processor 0 does 8x the work between barriers: everyone else
/// spends the phase waiting at the barrier.
class BarrierImbalanceApp final : public apps::App
{
  public:
    std::string name() const override { return "barrier-imbalance"; }

    void
    setup(sim::Machine& m) override
    {
        bar_ = m.barrierCreate();
        scratch_ = m.alloc(
            static_cast<std::uint64_t>(m.config().numProcs) * 4096);
    }

    sim::Machine::Program
    program() override
    {
        const sim::BarrierId bar = bar_;
        const sim::Addr scratch = scratch_;
        return [=](sim::Cpu& cpu) -> sim::Task {
            const sim::Addr mine =
                scratch + static_cast<sim::Addr>(cpu.id()) * 4096;
            for (int episode = 0; episode < 6; ++episode) {
                const int chunks = cpu.id() == 0 ? 64 : 8;
                for (int c = 0; c < chunks; ++c) {
                    cpu.read(mine + static_cast<sim::Addr>(c % 32) *
                                        128);
                    cpu.busy(300);
                    co_await cpu.checkpoint();
                }
                co_await cpu.barrier(bar);
            }
            co_return;
        };
    }

  private:
    sim::BarrierId bar_{};
    sim::Addr scratch_ = 0;
};

DiagnoseOptions
quickOptions()
{
    DiagnoseOptions opt;
    opt.procs = {1, 8};
    opt.jobs = 2;
    return opt;
}

// ---- classification ----

TEST(Diagnose, LockConvoyRanksLockSerializationFirst)
{
    const AppDiagnosis d = diagnose::diagnoseFactory(
        "lock-convoy", [] { return std::make_unique<LockConvoyApp>(); },
        quickOptions());
    ASSERT_TRUE(d.ok) << d.error;
    ASSERT_EQ(d.runs.size(), 2u);
    EXPECT_EQ(d.ranked.front().cause, Cause::LockSerialization);
    EXPECT_GT(d.ranked.front().share, 0.5);
    // The structural evidence agrees: one dominant lock, contended.
    const auto& foc = d.focus();
    EXPECT_EQ(foc.sync.locksUsed, 1);
    EXPECT_GT(foc.counters.lockContended, 0u);
    EXPECT_GT(foc.times.lockWait, foc.times.barrierWait);
}

TEST(Diagnose, BarrierImbalanceRanksBarrierImbalanceFirst)
{
    const AppDiagnosis d = diagnose::diagnoseFactory(
        "barrier-imbalance",
        [] { return std::make_unique<BarrierImbalanceApp>(); },
        quickOptions());
    ASSERT_TRUE(d.ok) << d.error;
    EXPECT_EQ(d.ranked.front().cause, Cause::BarrierImbalance);
    EXPECT_GT(d.ranked.front().share, 0.5);
    const auto& foc = d.focus();
    EXPECT_EQ(foc.sync.barrierEpisodes, 6u);
    EXPECT_GT(foc.times.barrierWait, foc.times.lockWait);
    // The worst waiter (a fast proc) waits well above the mean: the
    // imbalance fingerprint.
    EXPECT_GT(foc.maxBarrierWait,
              foc.times.barrierWait /
                  static_cast<sim::Cycles>(foc.procs));
}

// ---- invariants on a real registry app ----

TEST(Diagnose, SyncWaitPartitionIsExact)
{
    const AppDiagnosis d =
        diagnose::diagnoseApp("water-nsq", quickOptions());
    ASSERT_TRUE(d.ok) << d.error;
    for (const diagnose::RunObservation& r : d.runs) {
        EXPECT_EQ(r.times.lockWait + r.times.barrierWait,
                  r.times.syncWait)
            << "P=" << r.procs;
        if (r.traced) {
            // Epoch slices are a partition too.
            sim::Cycles lock_sum = 0, barrier_sum = 0;
            for (const diagnose::EpochRow& e : r.epochs) {
                lock_sum += e.lockWait;
                barrier_sum += e.barrierWait;
            }
            EXPECT_EQ(lock_sum, r.times.lockWait);
            EXPECT_EQ(barrier_sum, r.times.barrierWait);
        }
    }
    // Shares are normalized over the positive losses.
    double positive = 0;
    for (const diagnose::CauseScore& c : d.ranked)
        if (c.lostCycles > 0)
            positive += c.share;
    if (positive > 0) {
        EXPECT_NEAR(positive, 1.0, 1e-9);
    }
}

TEST(Diagnose, UnknownAppThrowsWithNameList)
{
    EXPECT_THROW(diagnose::diagnoseApp("no-such-app", quickOptions()),
                 std::invalid_argument);
}

// ---- JSON contract ----

TEST(Diagnose, JsonIsStrictParseableWithSchema)
{
    const AppDiagnosis d = diagnose::diagnoseApp("fft", quickOptions());
    ASSERT_TRUE(d.ok) << d.error;
    std::ostringstream os;
    diagnose::writeDiagnoseJson(os, {d});

    const check::json::ParseResult pr = check::json::parse(os.str());
    ASSERT_TRUE(pr.ok) << pr.error;
    const check::json::Value* schema = pr.root.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "ccnuma-diagnose-v2");

    const check::json::Value* apps_arr = pr.root.find("apps");
    ASSERT_NE(apps_arr, nullptr);
    ASSERT_TRUE(apps_arr->isArray());
    ASSERT_EQ(apps_arr->arr.size(), 1u);
    const check::json::Value& app = apps_arr->arr[0];
    EXPECT_EQ(app.find("app")->str, "fft");
    for (const char* key : {"machine", "ok", "scalesWell", "verdict",
                            "primaryCause", "causes", "runs"})
        ASSERT_NE(app.find(key), nullptr) << key;

    // v2: every app says which machine it was diagnosed on.
    const check::json::Value* machine = app.find("machine");
    ASSERT_NE(machine->find("protocol"), nullptr);
    ASSERT_NE(machine->find("dirFormat"), nullptr);
    EXPECT_EQ(machine->find("protocol")->str, "mesi");
    EXPECT_EQ(machine->find("dirFormat")->str, "fullbv");

    // Exactly the five taxonomy causes, each with evidence.
    const check::json::Value* causes = app.find("causes");
    ASSERT_TRUE(causes->isArray());
    ASSERT_EQ(causes->arr.size(),
              static_cast<std::size_t>(diagnose::kNumCauses));
    for (const check::json::Value& c : causes->arr) {
        ASSERT_NE(c.find("cause"), nullptr);
        ASSERT_NE(c.find("lostCycles"), nullptr);
        ASSERT_NE(c.find("share"), nullptr);
        ASSERT_NE(c.find("evidence"), nullptr);
    }

    // One entry per grid point with the full time partition.
    const check::json::Value* runs = app.find("runs");
    ASSERT_TRUE(runs->isArray());
    ASSERT_EQ(runs->arr.size(), 2u);
    for (const check::json::Value& r : runs->arr)
        for (const char* key :
             {"procs", "time", "speedup", "efficiency", "busy",
              "memStall", "lockWait", "barrierWait", "syncOp"})
            ASSERT_NE(r.find(key), nullptr) << key;
}

TEST(Diagnose, NonDefaultMachineIsRecordedInTheVerdict)
{
    DiagnoseOptions opt = quickOptions();
    ASSERT_TRUE(opt.protocol.parse("dragon"));
    ASSERT_TRUE(opt.dirFormat.parse("coarse:4"));
    const AppDiagnosis d = diagnose::diagnoseApp("fft", opt);
    ASSERT_TRUE(d.ok) << d.error;
    EXPECT_EQ(d.protocol, "dragon");
    EXPECT_EQ(d.dirFormat, "coarse:4");

    std::ostringstream os;
    diagnose::writeDiagnoseJson(os, {d});
    const check::json::ParseResult pr = check::json::parse(os.str());
    ASSERT_TRUE(pr.ok) << pr.error;
    const check::json::Value* machine =
        pr.root.find("apps")->arr[0].find("machine");
    ASSERT_NE(machine, nullptr);
    EXPECT_EQ(machine->find("protocol")->str, "dragon");
    EXPECT_EQ(machine->find("dirFormat")->str, "coarse:4");
}

TEST(Diagnose, JsonIsByteDeterministic)
{
    const DiagnoseOptions opt = quickOptions();
    std::ostringstream a, b;
    diagnose::writeDiagnoseJson(a, {diagnose::diagnoseApp("fft", opt)});
    diagnose::writeDiagnoseJson(b, {diagnose::diagnoseApp("fft", opt)});
    EXPECT_EQ(a.str(), b.str());
    EXPECT_FALSE(a.str().empty());
}

// ---- HTML contract ----

TEST(Diagnose, DashboardIsSelfContained)
{
    const AppDiagnosis d = diagnose::diagnoseApp("fft", quickOptions());
    ASSERT_TRUE(d.ok) << d.error;
    std::ostringstream os;
    diagnose::writeDashboard(os, {d});
    const std::string html = os.str();

    EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
    EXPECT_NE(html.find("id='app-fft'"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);
    EXPECT_NE(html.find(d.verdict.substr(0, 20)), std::string::npos);
    // Offline contract: no external fetches of any kind.
    for (const char* banned :
         {"http://", "https://", "<script src", "<link ", "@import",
          "url("})
        EXPECT_EQ(html.find(banned), std::string::npos) << banned;
}

} // namespace
