#include "core/study_runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "apps/input_cache.hh"
#include "core/metrics.hh"

namespace ccnuma::core {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

int
hostThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

/// Workers = thread budget, clamped to the work available.
int
resolveJobs(int requested, std::size_t work_items)
{
    int jobs = requested <= 0 ? hostThreads() : requested;
    if (work_items &&
        static_cast<std::size_t>(jobs) > work_items)
        jobs = static_cast<int>(work_items);
    return jobs < 1 ? 1 : jobs;
}

} // namespace

std::size_t
StudyResult::failures() const
{
    std::size_t n = 0;
    for (const RunOutcome& r : runs)
        n += r.ok ? 0 : 1;
    return n;
}

const RunOutcome*
StudyResult::find(const std::string& name) const
{
    for (const RunOutcome& r : runs)
        if (r.name == name)
            return &r;
    return nullptr;
}

void
StudyResult::emit(MetricsSink& sink) const
{
    if (!sink.enabled())
        return;
    for (const RunOutcome& r : runs) {
        if (!r.ok) {
            sink.addScalar(r.name, "failed", 1.0);
            continue;
        }
        sink.add(r.name, r.m.par);
        sink.addScalar(r.name, "nprocs", r.nprocs);
        if (r.m.seqTime) {
            sink.addScalar(r.name, "seqCycles",
                           static_cast<double>(r.m.seqTime));
            sink.addScalar(r.name, "speedup", r.m.speedup());
            sink.addScalar(r.name, "efficiency", r.m.efficiency());
        }
        sink.addScalar(r.name, "hostSeconds", r.seconds);
    }
    sink.addScalar("_study", "wallSeconds", wallSeconds);
    sink.addScalar("_study", "jobs", jobs);
    sink.addScalar("_study", "runs", static_cast<double>(runs.size()));
    sink.addScalar("_study", "failures",
                   static_cast<double>(failures()));
    sink.addCount("_study", "inputsBuilt", inputsBuilt);
    sink.addCount("_study", "inputsReused", inputsReused);
}

StudyRunner::StudyRunner(StudyOptions opt) : opt_(opt) {}

StudyRunner::~StudyRunner()
{
    {
        std::lock_guard<std::mutex> lk(subMu_);
        subStop_ = true;
    }
    subCv_.notify_all();
    if (subThread_.joinable())
        subThread_.join();
}

std::future<StudyResult>
StudyRunner::submit(StudyPlan plan)
{
    std::promise<StudyResult> promise;
    std::future<StudyResult> fut = promise.get_future();
    {
        std::lock_guard<std::mutex> lk(subMu_);
        subQ_.emplace_back(std::move(plan), std::move(promise));
        if (!subThread_.joinable())
            subThread_ = std::thread([this] { drainSubmissions(); });
    }
    subCv_.notify_one();
    return fut;
}

void
StudyRunner::drainSubmissions()
{
    std::unique_lock<std::mutex> lk(subMu_);
    for (;;) {
        subCv_.wait(lk, [&] { return subStop_ || !subQ_.empty(); });
        if (subQ_.empty())
            return; // only reachable when subStop_
        StudyPlan plan = std::move(subQ_.front().first);
        std::promise<StudyResult> promise =
            std::move(subQ_.front().second);
        subQ_.pop_front();
        lk.unlock();
        // run() never throws for per-run failures; anything that does
        // escape (e.g. bad_alloc) lands in the future, not std::terminate.
        try {
            promise.set_value(run(plan));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
        lk.lock();
    }
}

StudyResult
StudyRunner::run(const StudyPlan& plan)
{
    const std::vector<RunSpec>& specs = plan.specs();
    StudyResult result;
    result.runs.resize(specs.size());
    result.jobs = resolveJobs(opt_.jobs, specs.size());
    const auto study_t0 = std::chrono::steady_clock::now();

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex progress_mu;
    apps::InputCache inputs;

    // prev[i] is the nearest earlier spec sharing spec i's seqKey (or
    // npos). Spec i resolves its baseline only after that spec has, so
    // the first spec in plan order defines a shared baseline. Workers
    // claim specs in plan order, so prev[i] is already claimed and the
    // wait cannot deadlock.
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> prev(specs.size(), npos);
    {
        std::unordered_map<std::string, std::size_t> last;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!specs[i].baseline || specs[i].seqKey.empty())
                continue;
            auto [it, fresh] = last.try_emplace(specs[i].seqKey, i);
            if (!fresh)
                prev[i] = std::exchange(it->second, i);
        }
    }
    std::vector<char> settled(specs.size(), 0);
    std::mutex settle_mu;
    std::condition_variable settle_cv;
    const auto baselineOf = [&](std::size_t i) -> sim::Cycles {
        if (prev[i] != npos) {
            std::unique_lock<std::mutex> lk(settle_mu);
            settle_cv.wait(lk, [&] { return settled[prev[i]] != 0; });
        }
        const auto settle = [&] {
            {
                std::lock_guard<std::mutex> lk(settle_mu);
                settled[i] = 1;
            }
            settle_cv.notify_all();
        };
        const RunSpec& spec = specs[i];
        sim::Cycles seq = 0;
        try {
            seq = seqBaseline(spec.cfg, spec.factory, &cache_,
                              spec.seqKey);
        } catch (...) {
            settle();
            throw;
        }
        settle();
        return seq;
    };

    const auto worker = [&] {
        const apps::InputCache::Scope scope(&inputs);
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= specs.size())
                return;
            const RunSpec& spec = specs[i];
            RunOutcome& out = result.runs[i];
            out.name = spec.name;
            out.nprocs = spec.cfg.numProcs;
            const auto t0 = std::chrono::steady_clock::now();
            try {
                out.m.nprocs = spec.cfg.numProcs;
                if (spec.baseline)
                    out.m.seqTime = baselineOf(i);
                apps::AppPtr app = spec.factory();
                out.m.par = runApp(spec.cfg, *app, spec.preRun);
                out.m.parTime = out.m.par.time;
                out.ok = true;
            } catch (const std::exception& e) {
                out.error = e.what();
            } catch (...) {
                out.error = "unknown exception";
            }
            out.seconds = secondsSince(t0);
            const std::size_t finished =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (opt_.progress) {
                std::lock_guard<std::mutex> lk(progress_mu);
                if (out.ok && spec.baseline)
                    std::fprintf(stderr,
                                 "[%zu/%zu] %s: speedup %.1f on %d "
                                 "procs (%.2fs)\n",
                                 finished, specs.size(),
                                 out.name.c_str(), out.m.speedup(),
                                 out.nprocs, out.seconds);
                else if (out.ok)
                    std::fprintf(stderr,
                                 "[%zu/%zu] %s: done (%.2fs)\n",
                                 finished, specs.size(),
                                 out.name.c_str(), out.seconds);
                else
                    std::fprintf(stderr,
                                 "[%zu/%zu] %s: FAILED: %s\n",
                                 finished, specs.size(),
                                 out.name.c_str(), out.error.c_str());
                std::fflush(stderr);
            }
        }
    };

    if (result.jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(result.jobs);
        for (int t = 0; t < result.jobs; ++t)
            pool.emplace_back(worker);
        for (std::thread& t : pool)
            t.join();
    }

    result.wallSeconds = secondsSince(study_t0);
    result.inputsBuilt = inputs.computed();
    result.inputsReused = inputs.hits();
    return result;
}

} // namespace ccnuma::core
