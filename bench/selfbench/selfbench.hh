/**
 * @file
 * Self-benchmark harness: times the simulator itself (host-side wall
 * clock) over a representative grid of application runs and reports
 * simulated-memory-ops-committed per host second. This is the repo's
 * perf trajectory: `ccnuma_bench` emits BENCH_sim.json via
 * core::MetricsSink and CI compares it against a checked-in baseline.
 *
 * Simulated results are never part of the measurement contract here —
 * golden metrics (tests/golden/metrics-v1.json) pin those. This
 * harness only asks "how fast does the host produce them".
 */

#ifndef CCNUMA_BENCH_SELFBENCH_HH
#define CCNUMA_BENCH_SELFBENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hh"

namespace ccnuma::sim {
struct MachineConfig;
}

namespace ccnuma::bench::selfbench {

/// One timed configuration: an application at a size on P processors.
struct BenchCase {
    std::string app;
    std::uint64_t size = 0;
    int procs = 1;

    std::string label() const
    {
        return "selfbench/" + app + "/p" + std::to_string(procs);
    }
};

/**
 * The figure-2 grid (original apps across machine sizes). Quick mode
 * trims the sweep to two machine sizes at reduced problem sizes so a
 * CI perf-smoke run finishes in well under a minute; full mode uses
 * the paper's basic sizes on 32/64/96/128 processors.
 */
std::vector<BenchCase> fig2Grid(bool quick);

/** Timing of one case; simulated counters are run-deterministic. */
struct CaseResult {
    BenchCase bc;
    std::uint64_t simMemOps = 0; ///< loads + stores committed
    std::uint64_t simCycles = 0; ///< simulated run time
    double wallMs = 0.0;         ///< best-of-`repeat` host wall clock
    double opsPerSec = 0.0;      ///< simMemOps / (wallMs/1000)
};

/** Whole-grid timing plus the aggregate used for regression gating. */
struct GridResult {
    std::vector<CaseResult> cases;
    std::uint64_t totalMemOps = 0;
    double totalWallMs = 0.0;
    /// totalMemOps / total host seconds: one number whose >25% drop
    /// fails CI. Aggregated over the grid, not a mean of per-case
    /// rates, so long cases weigh more (as they do in real studies).
    double aggOpsPerSec = 0.0;
};

/**
 * Run every case and time it. Each case is simulated `repeat` times
 * (>=1) and the fastest wall clock is kept — simulated results are
 * deterministic, so repeats only reduce host noise. `progress` (when
 * true) prints one line per case to stdout as it completes. `machine`
 * (when non-null) supplies the coherence protocol and directory
 * format every case runs under; all other parameters stay at the
 * per-case origin2000 calibration.
 */
GridResult runGrid(const std::vector<BenchCase>& grid, int repeat = 1,
                   bool progress = false,
                   const sim::MachineConfig* machine = nullptr);

/**
 * Emit the grid into `sink`: one entry per case (text "app"; counts
 * "procs", "size", "simMemOps", "simCycles"; scalars "wallMs",
 * "opsPerSec") plus a "selfbench/meta" entry carrying "gitDescribe",
 * "grid", "schemaVersion", "totalMemOps", "totalWallMs" and
 * "aggOpsPerSec".
 */
void emit(core::MetricsSink& sink, const GridResult& r,
          const std::string& gridName, const std::string& gitDescribe);

/**
 * Carry the perf trajectory across runs: copy every "history/N" entry
 * from a previously emitted BENCH_sim.json at `priorPath` into `sink`
 * (relabelled sequentially from history/0), then append this run's
 * aggregate as the next entry — text "gitDescribe"/"date"/"grid",
 * count "totalMemOps", scalars "totalWallMs"/"aggOpsPerSec". Prior
 * entries whose "gitDescribe" equals this run's are dropped, so
 * re-benchmarking the same revision replaces its measurement instead
 * of duplicating it. A missing or unparseable prior file starts the
 * history fresh. Returns the new entry's index (== number of prior
 * entries kept).
 */
std::size_t appendHistory(core::MetricsSink& sink,
                          const std::string& priorPath,
                          const GridResult& r,
                          const std::string& gridName,
                          const std::string& gitDescribe,
                          const std::string& date);

/** Verdict of a baseline comparison. */
struct CompareResult {
    bool ok = false;       ///< ratio >= minRatio (and baseline parsed)
    double ratio = 0.0;    ///< current aggOpsPerSec / baseline's
    std::string message;   ///< human-readable verdict or parse error
};

/**
 * Compare `current` against a previously emitted BENCH_sim.json at
 * `baselinePath` (strict check::json parse; the file must contain a
 * "selfbench/meta" entry). ok iff current/baseline >= minRatio —
 * CI uses minRatio 0.75, i.e. fail on a >25% ops/sec regression.
 */
CompareResult compareBaseline(const std::string& baselinePath,
                              const GridResult& current,
                              double minRatio);

} // namespace ccnuma::bench::selfbench

#endif // CCNUMA_BENCH_SELFBENCH_HH
