/**
 * @file
 * The parallel study engine: execute a declarative grid of experiment
 * runs (a StudyPlan of RunSpecs) on a pool of host threads.
 *
 * The paper's methodology is a large grid of independent simulations —
 * eleven applications x {32,64,96,128} processors x problem sizes x
 * machine variants. Each sim::Machine is self-contained, so the grid is
 * embarrassingly parallel. The engine exploits that, and its results
 * are cycle-identical to a serial loop of measure() calls over the same
 * plan with the same baseline cache, whatever the job count, provided
 * each factory builds the same program every time it is called:
 *
 *  - Deterministic aggregation: results come back in submission order
 *    regardless of which worker finished first.
 *  - Single-flight baselines: RunSpecs sharing a seqKey share one
 *    uniprocessor baseline simulation (SeqBaselineCache), never two.
 *    The first spec in plan order that uses a key runs it, with its
 *    own factory and config, as the serial loop would; a later spec
 *    waits for that one and reads the cache. A key the cache already
 *    holds (from an earlier run() or insert()) is read as is. If the
 *    owner's baseline throws, the next spec in plan order runs its own.
 *  - Shared inputs: each run() owns one apps::InputCache, installed
 *    on every worker, so an app's P-independent host input (built via
 *    apps::sharedInput) is built once per plan and read by every spec
 *    and baseline that names it. It dies with the call, so each plan
 *    is a one-off study, as with baselines of a fresh runner.
 *  - Exception isolation: a throwing run fails only its own cell; the
 *    rest of the study completes.
 *  - Progress + timing: optional per-run progress lines on stderr, and
 *    the study's host wall-clock in StudyResult.
 */

#ifndef CCNUMA_CORE_STUDY_RUNNER_HH
#define CCNUMA_CORE_STUDY_RUNNER_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/seq_cache.hh"
#include "core/study.hh"

namespace ccnuma::core {

class MetricsSink;

/** One cell of a study grid: a named machine + application pairing. */
struct RunSpec {
    std::string name;        ///< Label in results, progress and JSON.
    sim::MachineConfig cfg;
    AppFactory factory;
    /// Baseline memo key; specs sharing a key share one uniprocessor
    /// baseline run. Empty = private (uncached) baseline.
    std::string seqKey;
    /// When false, skip the baseline entirely (parallel run only;
    /// Measurement::seqTime stays 0 and speedup() reads 0).
    bool baseline = true;
    /// Optional hook run on the parallel Machine between App::setup()
    /// and Machine::run() (attach observers; see core::MachineHook).
    /// Called from the worker thread executing this spec.
    MachineHook preRun;
};

/** An ordered list of RunSpecs; order defines result order. */
class StudyPlan
{
  public:
    StudyPlan& add(RunSpec spec)
    {
        specs_.push_back(std::move(spec));
        return *this;
    }
    /// Convenience: measure `factory` on `cfg` against a (shared, when
    /// `seqKey` non-empty) uniprocessor baseline.
    StudyPlan& add(std::string name, const sim::MachineConfig& cfg,
                   AppFactory factory, std::string seqKey = "")
    {
        return add(RunSpec{std::move(name), cfg, std::move(factory),
                           std::move(seqKey), true, {}});
    }
    /// Convenience: parallel run only, no baseline (e.g. breakdowns).
    StudyPlan& addParallelOnly(std::string name,
                               const sim::MachineConfig& cfg,
                               AppFactory factory)
    {
        return add(RunSpec{std::move(name), cfg, std::move(factory),
                           "", false, {}});
    }

    const std::vector<RunSpec>& specs() const { return specs_; }
    std::size_t size() const { return specs_.size(); }
    bool empty() const { return specs_.empty(); }

  private:
    std::vector<RunSpec> specs_;
};

/** Outcome of one RunSpec. Exactly one of ok/error is meaningful. */
struct RunOutcome {
    std::string name;
    int nprocs = 0;
    bool ok = false;
    std::string error;    ///< what() of the exception when !ok.
    Measurement m;        ///< Valid only when ok.
    double seconds = 0;   ///< Host wall-clock of this cell.
};

/** All outcomes of one study, in plan submission order. */
struct StudyResult {
    std::vector<RunOutcome> runs;
    double wallSeconds = 0;  ///< Host wall-clock of the whole study.
    int jobs = 1;            ///< Worker threads actually used.
    std::uint64_t inputsBuilt = 0;  ///< App inputs built (InputCache).
    std::uint64_t inputsReused = 0; ///< App inputs shared, not rebuilt.

    std::size_t failures() const;
    const RunOutcome* find(const std::string& name) const;
    /// Emit the full grid into `sink`: per-run breakdown/totals plus
    /// speedup/efficiency scalars, and a "_study" entry with the
    /// engine's own wall-clock, job count, run and failure counts and
    /// input-cache counts.
    void emit(MetricsSink& sink) const;
};

/** Engine knobs. */
struct StudyOptions {
    /// Worker threads, each running one simulation at a time; 0 = one
    /// per hardware thread. Never more than the plan has runs.
    int jobs = 1;
    /// Print one line per completed run to stderr.
    bool progress = false;
};

/**
 * Executes StudyPlans on a fixed-size worker pool. The baseline cache
 * persists across run() calls, so successive plans (e.g. an original
 * and a restructured sweep) share baselines. StudyRunner itself is not
 * re-entrant: call run() from one thread at a time.
 */
class StudyRunner
{
  public:
    explicit StudyRunner(StudyOptions opt = {});
    /// Joins the submission thread after draining every pending
    /// submit()ted plan (their futures all become ready).
    ~StudyRunner();
    StudyRunner(const StudyRunner&) = delete;
    StudyRunner& operator=(const StudyRunner&) = delete;

    /// Run every spec; never throws for per-run failures (see
    /// RunOutcome::error).
    StudyResult run(const StudyPlan& plan);

    /**
     * Asynchronous front door for run(): enqueue `plan` and get a
     * future for its StudyResult. Plans drain FIFO through run() on
     * one lazily-started internal thread, so concurrent submitters
     * (e.g. ccnuma_serve connection handlers) share the worker pool,
     * the host-thread budget and the baseline cache instead of each
     * spinning up their own study. submit() is thread-safe; the
     * not-re-entrant rule moves to "don't call run() directly while
     * submissions are outstanding".
     */
    std::future<StudyResult> submit(StudyPlan plan);

    SeqBaselineCache& baselineCache() { return cache_; }

  private:
    void drainSubmissions();

    StudyOptions opt_;
    SeqBaselineCache cache_;
    // ---- submit() machinery ----
    std::mutex subMu_;
    std::condition_variable subCv_;
    std::deque<std::pair<StudyPlan, std::promise<StudyResult>>> subQ_;
    std::thread subThread_; ///< Started by the first submit().
    bool subStop_ = false;
};

} // namespace ccnuma::core

#endif // CCNUMA_CORE_STUDY_RUNNER_HH
