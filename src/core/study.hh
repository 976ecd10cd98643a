/**
 * @file
 * The study framework: run applications on configured machines, measure
 * speedup/parallel efficiency against a uniprocessor baseline of the
 * same program (the paper's methodology, Section 2.3), and sweep
 * problem sizes and machine sizes.
 *
 * Baselines are memoized in a thread-safe SeqBaselineCache (see
 * seq_cache.hh). measure() is the one-run path; a grid of runs belongs
 * on the parallel StudyRunner (study_runner.hh), as in ccnuma_paper,
 * which regenerates every table and figure of the paper from one plan.
 */

#ifndef CCNUMA_CORE_STUDY_HH
#define CCNUMA_CORE_STUDY_HH

#include <functional>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "core/seq_cache.hh"
#include "sim/machine.hh"

namespace ccnuma::core {

/// Build-an-app callback; called once per machine (P-proc and 1-proc).
using AppFactory = std::function<apps::AppPtr()>;

/// Optional per-run access to the Machine between App::setup() and
/// Machine::run() — the seam observers (e.g. a sim::SyncObserver or
/// the diagnose sync profiler) attach through. Never called for
/// baseline runs (those are only timed).
using MachineHook = std::function<void(sim::Machine&)>;

/// Run `app` on a machine configured by `cfg`. `pre_run` (optional) is
/// invoked after setup, just before the program starts.
sim::RunResult runApp(const sim::MachineConfig& cfg, apps::App& app,
                      const MachineHook& pre_run = {});

/** Result of one speedup measurement. */
struct Measurement {
    sim::Cycles seqTime = 0;
    sim::Cycles parTime = 0;
    int nprocs = 0;
    sim::RunResult par;   ///< Full parallel-run stats.
    double speedup() const
    {
        return parTime ? static_cast<double>(seqTime) / parTime : 0.0;
    }
    double efficiency() const
    {
        return nprocs ? speedup() / nprocs : 0.0;
    }
};

/**
 * Uniprocessor baseline time of factory() on cfg.baseline(), memoized
 * under `seq_key` in `seq_cache` when one is given (the first caller of
 * a key runs its own factory; later callers read the cached value).
 */
sim::Cycles seqBaseline(const sim::MachineConfig& cfg,
                        const AppFactory& factory,
                        SeqBaselineCache* seq_cache = nullptr,
                        const std::string& seq_key = "");

/**
 * Measure speedup of factory() on `cfg` against the same program on a
 * 1-processor machine with otherwise identical parameters
 * (cfg.baseline()).
 *
 * `seq_cache` (optional) memoizes sequential times across calls keyed
 * by a caller-chosen string (e.g. "fft-2^20"); the cache is thread-safe
 * and single-flight, so concurrent callers sharing a key simulate the
 * baseline exactly once.
 */
Measurement measure(const sim::MachineConfig& cfg,
                    const AppFactory& factory,
                    SeqBaselineCache* seq_cache = nullptr,
                    const std::string& seq_key = "",
                    const MachineHook& pre_run = {});

/// The paper's "scaling well" threshold: 60% parallel efficiency.
inline constexpr double kGoodEfficiency = 0.60;

} // namespace ccnuma::core

#endif // CCNUMA_CORE_STUDY_HH
