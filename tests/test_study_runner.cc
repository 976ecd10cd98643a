/**
 * @file
 * Tests for the parallel study engine: cycle-identity with the serial
 * path, single-flight baseline dedup, plan-order baseline ownership,
 * exception isolation, ordered aggregation, and the SeqBaselineCache
 * itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "apps/registry.hh"
#include "core/metrics.hh"
#include "core/study_runner.hh"

using namespace ccnuma;

namespace {

void
expectSameStats(const sim::RunResult& a, const sim::RunResult& b)
{
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.procs.size(), b.procs.size());
    ASSERT_EQ(a.pageMigrations, b.pageMigrations);
    for (std::size_t p = 0; p < a.procs.size(); ++p) {
        const sim::ProcStats& x = a.procs[p];
        const sim::ProcStats& y = b.procs[p];
        EXPECT_EQ(x.t.busy, y.t.busy) << p;
        EXPECT_EQ(x.t.memStall, y.t.memStall) << p;
        EXPECT_EQ(x.t.syncWait, y.t.syncWait) << p;
        EXPECT_EQ(x.t.syncOp, y.t.syncOp) << p;
        EXPECT_EQ(x.c.loads, y.c.loads) << p;
        EXPECT_EQ(x.c.stores, y.c.stores) << p;
        EXPECT_EQ(x.c.l2Hits, y.c.l2Hits) << p;
        EXPECT_EQ(x.c.missLocal, y.c.missLocal) << p;
        EXPECT_EQ(x.c.missRemoteClean, y.c.missRemoteClean) << p;
        EXPECT_EQ(x.c.missRemoteDirty, y.c.missRemoteDirty) << p;
        EXPECT_EQ(x.c.upgrades, y.c.upgrades) << p;
        EXPECT_EQ(x.c.invalsSent, y.c.invalsSent) << p;
        EXPECT_EQ(x.c.writebacks, y.c.writebacks) << p;
        EXPECT_EQ(x.c.lockAcquires, y.c.lockAcquires) << p;
        EXPECT_EQ(x.c.barriersPassed, y.c.barriersPassed) << p;
    }
}

/// A small mixed grid: two apps x two machine sizes, shared baselines.
core::StudyPlan
smallGrid()
{
    core::StudyPlan plan;
    for (const char* name : {"fft", "ocean"}) {
        for (const int P : {2, 4}) {
            const std::uint64_t size = name[0] == 'f' ? 1 << 12 : 66;
            plan.add(std::string(name) + " P=" + std::to_string(P),
                     sim::MachineConfig::origin2000(P),
                     [name, size] { return apps::makeApp(name, size); },
                     name);
        }
    }
    return plan;
}

} // namespace

TEST(StudyRunner, CycleIdenticalToSerialMeasure)
{
    const core::StudyPlan plan = smallGrid();

    // Serial reference: plain measure() calls, fresh cache.
    std::vector<core::Measurement> serial;
    core::SeqBaselineCache serial_cache;
    for (const core::RunSpec& s : plan.specs())
        serial.push_back(core::measure(s.cfg, s.factory, &serial_cache,
                                       s.seqKey));

    core::StudyRunner runner({.jobs = 4});
    const core::StudyResult res = runner.run(plan);
    ASSERT_EQ(res.runs.size(), plan.size());
    EXPECT_EQ(res.failures(), 0u);
    EXPECT_EQ(res.jobs, 4);

    for (std::size_t i = 0; i < plan.size(); ++i) {
        SCOPED_TRACE(res.runs[i].name);
        ASSERT_TRUE(res.runs[i].ok) << res.runs[i].error;
        EXPECT_EQ(res.runs[i].name, plan.specs()[i].name)
            << "submission-ordered aggregation";
        EXPECT_EQ(res.runs[i].m.seqTime, serial[i].seqTime);
        EXPECT_EQ(res.runs[i].m.parTime, serial[i].parTime);
        EXPECT_EQ(res.runs[i].m.nprocs, serial[i].nprocs);
        expectSameStats(res.runs[i].m.par, serial[i].par);
    }
}

TEST(StudyRunner, JobsIsTheThreadBudget)
{
    const core::StudyPlan plan = smallGrid(); // 4 cells

    // Each worker runs one simulation on its own thread, so the pool
    // is exactly the requested budget while there is work for it.
    core::StudyRunner two({.jobs = 2});
    EXPECT_EQ(two.run(plan).jobs, 2);

    core::StudyRunner one({.jobs = 1});
    EXPECT_EQ(one.run(plan).jobs, 1);

    // jobs=0 (auto) is one worker per host thread, clamped to the
    // cells like any other budget.
    core::StudyRunner autos({.jobs = 0});
    const int jobs = autos.run(plan).jobs;
    EXPECT_GE(jobs, 1);
    EXPECT_LE(jobs, 4);
}

TEST(StudyRunner, WorkerPoolStillClampedToWorkItems)
{
    const core::StudyPlan plan = smallGrid(); // 4 cells
    core::StudyRunner wide({.jobs = 64});
    const core::StudyResult res = wide.run(plan);
    EXPECT_EQ(res.jobs, 4) << "never more workers than cells";
    EXPECT_EQ(res.failures(), 0u);
}

TEST(StudyRunner, SingleFlightBaselineDedup)
{
    // Four specs share one seq_key: the uniprocessor baseline must be
    // simulated exactly once even with four concurrent workers, so the
    // factory runs 4 (parallel) + 1 (baseline) times.
    std::atomic<int> factories{0};
    core::StudyPlan plan;
    for (const int P : {2, 2, 4, 4})
        plan.add("fft P=" + std::to_string(P),
                 sim::MachineConfig::origin2000(P),
                 [&factories] {
                     factories.fetch_add(1);
                     return apps::makeApp("fft", 1 << 12);
                 },
                 "shared");

    core::StudyRunner runner({.jobs = 4});
    const core::StudyResult res = runner.run(plan);
    EXPECT_EQ(res.failures(), 0u);
    EXPECT_EQ(factories.load(), 5)
        << "baseline deduplicated in flight";
    EXPECT_EQ(runner.baselineCache().size(), 1u);
    EXPECT_EQ(runner.baselineCache().hits(), 3u);
    // All four cells report the identical shared baseline.
    for (const core::RunOutcome& r : res.runs)
        EXPECT_EQ(r.m.seqTime, res.runs[0].m.seqTime);
}

namespace {

/// Forwards to another app, counting the uniprocessor machines it is
/// set up on.
class UniprocCountingApp : public apps::App
{
  public:
    UniprocCountingApp(apps::AppPtr inner, std::atomic<int>& uniprocs)
        : inner_(std::move(inner)), uniprocs_(uniprocs)
    {}
    std::string name() const override { return inner_->name(); }
    void setup(sim::Machine& m) override
    {
        if (m.config().numProcs == 1)
            uniprocs_.fetch_add(1);
        inner_->setup(m);
    }
    sim::Machine::Program program() override { return inner_->program(); }

  private:
    apps::AppPtr inner_;
    std::atomic<int>& uniprocs_;
};

} // namespace

TEST(StudyRunner, SharedBaselineBelongsToFirstSpecInPlanOrder)
{
    // Two different programs share one key, as an original and its
    // restructured version do. The first in plan order must define the
    // baseline at every job count, however the workers interleave; a
    // slow first factory keeps the other specs waiting on it.
    const auto first = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return apps::makeApp("fft", 1 << 12);
    };
    const auto second = [] { return apps::makeApp("radix", 1 << 12); };
    const sim::MachineConfig cfg = sim::MachineConfig::origin2000(2);
    const sim::Cycles want = core::seqBaseline(cfg, first);
    ASSERT_NE(want, core::seqBaseline(cfg, second))
        << "the two programs must have different baselines";

    for (const int jobs : {1, 2, 4}) {
        for (int rep = 0; rep < 10; ++rep) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs));
            std::atomic<int> second_uniprocs{0};
            core::StudyPlan plan;
            plan.add("first", cfg, first, "shared");
            for (const int P : {2, 4, 2, 4})
                plan.add("second P=" + std::to_string(P),
                         sim::MachineConfig::origin2000(P),
                         [&] {
                             return std::make_unique<UniprocCountingApp>(
                                 second(), second_uniprocs);
                         },
                         "shared");
            core::StudyRunner runner({.jobs = jobs});
            const core::StudyResult res = runner.run(plan);
            ASSERT_EQ(res.failures(), 0u);
            for (const core::RunOutcome& r : res.runs)
                EXPECT_EQ(r.m.seqTime, want) << r.name;
            EXPECT_EQ(second_uniprocs.load(), 0)
                << "the second program never runs the baseline";
        }
    }
}

TEST(StudyRunner, ExceptionIsolation)
{
    core::StudyPlan plan;
    plan.add("good-before", sim::MachineConfig::origin2000(2),
             [] { return apps::makeApp("fft", 1 << 10); }, "fft");
    plan.add("bad", sim::MachineConfig::origin2000(2),
             []() -> apps::AppPtr {
                 throw std::runtime_error("boom: bad config cell");
             });
    // An unknown app name fails through makeApp's own throw.
    plan.add("bad-name", sim::MachineConfig::origin2000(2),
             [] { return apps::makeApp("no-such-app"); });
    plan.add("good-after", sim::MachineConfig::origin2000(4),
             [] { return apps::makeApp("fft", 1 << 10); }, "fft");

    core::StudyRunner runner({.jobs = 2});
    const core::StudyResult res = runner.run(plan);
    ASSERT_EQ(res.runs.size(), 4u);
    EXPECT_EQ(res.failures(), 2u);
    EXPECT_TRUE(res.runs[0].ok);
    EXPECT_FALSE(res.runs[1].ok);
    EXPECT_NE(res.runs[1].error.find("boom"), std::string::npos);
    EXPECT_FALSE(res.runs[2].ok);
    EXPECT_NE(res.runs[2].error.find("no-such-app"),
              std::string::npos);
    EXPECT_TRUE(res.runs[3].ok);
    // The failing cells didn't poison the shared baseline.
    EXPECT_EQ(res.runs[0].m.seqTime, res.runs[3].m.seqTime);
    EXPECT_NE(res.find("good-after"), nullptr);
    EXPECT_EQ(res.find("nope"), nullptr);
}

TEST(StudyRunner, ParallelOnlySkipsBaseline)
{
    core::StudyPlan plan;
    plan.addParallelOnly("fft", sim::MachineConfig::origin2000(4),
                         [] { return apps::makeApp("fft", 1 << 12); });
    core::StudyRunner runner;
    const core::StudyResult res = runner.run(plan);
    ASSERT_EQ(res.failures(), 0u);
    EXPECT_EQ(res.runs[0].m.seqTime, 0u);
    EXPECT_GT(res.runs[0].m.parTime, 0u);
    EXPECT_EQ(runner.baselineCache().size(), 0u);
}

TEST(StudyRunner, EmitsFullGridToMetricsSink)
{
    core::StudyRunner runner({.jobs = 2});
    const core::StudyResult res = runner.run(smallGrid());
    const std::string path =
        ::testing::TempDir() + "/study_grid.json";
    core::MetricsSink sink(path);
    res.emit(sink);
    ASSERT_TRUE(sink.write());
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    const std::string doc((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
    EXPECT_NE(doc.find("\"fft P=2\""), std::string::npos);
    EXPECT_NE(doc.find("\"speedup\""), std::string::npos);
    EXPECT_NE(doc.find("\"_study\""), std::string::npos);
    EXPECT_NE(doc.find("\"wallSeconds\""), std::string::npos);
}

TEST(SeqBaselineCache, SingleFlightUnderContention)
{
    core::SeqBaselineCache cache;
    std::atomic<int> computes{0};
    const auto slow_compute = [&]() -> sim::Cycles {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 42;
    };
    std::vector<std::thread> threads;
    std::vector<sim::Cycles> got(8, 0);
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            got[t] = cache.getOrCompute("key", slow_compute);
        });
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(computes.load(), 1) << "one leader, everyone else waits";
    for (const sim::Cycles v : got)
        EXPECT_EQ(v, 42u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits(), 7u);
}

TEST(SeqBaselineCache, FailedLeaderPromotesWaiter)
{
    core::SeqBaselineCache cache;
    std::atomic<int> attempts{0};
    std::vector<std::thread> threads;
    std::atomic<int> successes{0};
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
            try {
                // First attempt throws; retries succeed.
                const sim::Cycles v =
                    cache.getOrCompute("key", [&]() -> sim::Cycles {
                        if (attempts.fetch_add(1) == 0) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(10));
                            throw std::runtime_error("flaky");
                        }
                        return 7;
                    });
                EXPECT_EQ(v, 7u);
                successes.fetch_add(1);
            } catch (const std::runtime_error&) {
                failures.fetch_add(1);
            }
        });
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 1)
        << "only the failing leader sees the exception";
    EXPECT_EQ(successes.load(), 3);
    EXPECT_EQ(cache.lookup("key"), 7u);
}

TEST(SeqBaselineCache, EmptyKeyBypassesCache)
{
    core::SeqBaselineCache cache;
    int computes = 0;
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(cache.getOrCompute("",
                                     [&]() -> sim::Cycles {
                                         ++computes;
                                         return 9;
                                     }),
                  9u);
    EXPECT_EQ(computes, 3);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SeqBaselineCache, InsertPreSeedsValues)
{
    core::SeqBaselineCache cache;
    cache.insert("warm", 123);
    EXPECT_EQ(cache.getOrCompute("warm",
                                 []() -> sim::Cycles {
                                     ADD_FAILURE()
                                         << "must not recompute";
                                     return 0;
                                 }),
              123u);
    EXPECT_EQ(cache.lookup("cold"), std::nullopt);
}

TEST(StudyRunnerSubmit, FutureDeliversSameResultAsRun)
{
    const core::StudyPlan plan = smallGrid();

    core::StudyRunner sync({.jobs = 2});
    const core::StudyResult want = sync.run(plan);

    core::StudyRunner runner({.jobs = 2});
    std::future<core::StudyResult> fut = runner.submit(plan);
    const core::StudyResult got = fut.get();
    ASSERT_EQ(got.runs.size(), want.runs.size());
    for (std::size_t i = 0; i < got.runs.size(); ++i) {
        SCOPED_TRACE(got.runs[i].name);
        ASSERT_TRUE(got.runs[i].ok) << got.runs[i].error;
        EXPECT_EQ(got.runs[i].name, want.runs[i].name);
        expectSameStats(got.runs[i].m.par, want.runs[i].m.par);
    }
}

TEST(StudyRunnerSubmit, ConcurrentSubmittersAllComplete)
{
    core::StudyRunner runner({.jobs = 2});
    constexpr int kSubmitters = 6;
    std::vector<std::future<core::StudyResult>> futs(kSubmitters);
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (int i = 0; i < kSubmitters; ++i)
        threads.emplace_back([&, i] {
            core::StudyPlan plan;
            plan.add("fft P=2", sim::MachineConfig::origin2000(2),
                     [] { return apps::makeApp("fft", 1 << 10); },
                     "fft-submit");
            futs[i] = runner.submit(std::move(plan));
        });
    for (auto& t : threads)
        t.join();

    sim::Cycles time = 0;
    for (int i = 0; i < kSubmitters; ++i) {
        const core::StudyResult res = futs[i].get();
        ASSERT_EQ(res.runs.size(), 1u);
        ASSERT_TRUE(res.runs[0].ok) << res.runs[0].error;
        if (i == 0)
            time = res.runs[0].m.parTime;
        else
            EXPECT_EQ(res.runs[0].m.parTime, time)
                << "identical plans, identical results";
    }
    // All six submissions shared one cached uniprocessor baseline.
    EXPECT_EQ(runner.baselineCache().size(), 1u);
}

TEST(StudyRunnerSubmit, DestructorDrainsPendingSubmissions)
{
    std::future<core::StudyResult> early;
    std::future<core::StudyResult> late;
    {
        core::StudyRunner runner({.jobs = 1});
        const auto mkPlan = [] {
            core::StudyPlan plan;
            plan.addParallelOnly(
                "fft", sim::MachineConfig::origin2000(2),
                [] { return apps::makeApp("fft", 1 << 10); });
            return plan;
        };
        early = runner.submit(mkPlan());
        late = runner.submit(mkPlan());
        // Destroy with work still (possibly) queued.
    }
    EXPECT_TRUE(early.get().runs[0].ok);
    EXPECT_TRUE(late.get().runs[0].ok);
}

TEST(StudyRunnerSubmit, PerRunFailuresStayIsolated)
{
    core::StudyRunner runner({.jobs = 1});
    core::StudyPlan plan;
    plan.addParallelOnly("boom", sim::MachineConfig::origin2000(2), [] {
        return apps::makeApp("no-such-app");
    });
    plan.addParallelOnly("fft", sim::MachineConfig::origin2000(2), [] {
        return apps::makeApp("fft", 1 << 10);
    });
    const core::StudyResult res = runner.submit(std::move(plan)).get();
    ASSERT_EQ(res.runs.size(), 2u);
    EXPECT_FALSE(res.runs[0].ok);
    EXPECT_NE(res.runs[0].error.find("no-such-app"), std::string::npos);
    EXPECT_TRUE(res.runs[1].ok) << res.runs[1].error;
}
