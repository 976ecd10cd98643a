/**
 * @file
 * Automated scaling-loss diagnosis (the tentpole of the observability
 * layer): run an application across a grid of machine sizes, collect
 * the full observability surface for every run — the time breakdown
 * with its lockWait/barrierWait partition, miss-latency histograms,
 * the sharing profile, epoch series, and the synchronization structure
 * from an attached analyze::SyncProfile — and turn the numbers into a
 * *ranked verdict*: which of the paper's scaling-loss mechanisms is
 * costing this application its parallel efficiency, backed by the
 * specific counters that say so.
 *
 * The attribution model works in aggregate processor-cycles. With the
 * smallest grid point (normally P=1) as the reference, the focus run's
 * (largest P) excess cost splits exactly into
 *
 *   busyExcess + memExcess + lockWait + barrierWait + syncOpExcess,
 *
 * and memExcess further splits against the miss-latency histograms:
 *  - contention  = sum over miss classes of (mean - min) x count —
 *    queueing delay above the uncontended latency, i.e. Hub/memory
 *    contention (Section 5 of the paper);
 *  - placement   = remote misses x (uncontended remote premium over a
 *    local miss) — cycles a perfect data distribution would reclaim;
 *  - capacity    = the residual. Negative residual means the grown
 *    aggregate cache turned misses into hits (superlinearity,
 *    Section 4.2.2) and is reported as a *gain*.
 *
 * Everything is a pure function of deterministic simulator output, so
 * diagnosing the same app twice produces byte-identical JSON.
 */

#ifndef CCNUMA_DIAGNOSE_DIAGNOSE_HH
#define CCNUMA_DIAGNOSE_DIAGNOSE_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analyze/sync_profile.hh"
#include "core/metrics.hh"
#include "core/study.hh"
#include "obs/trace.hh"
#include "sim/protocol.hh"

namespace ccnuma::diagnose {

/** The verdict taxonomy: the paper's scaling-loss mechanisms. */
enum class Cause : std::uint8_t {
    LockSerialization, ///< Waiting in line for contended locks.
    BarrierImbalance,  ///< Waiting at barriers for slower processors.
    HubContention,     ///< Queueing at Hubs/memory above uncontended
                       ///< latency (the paper's Section 5).
    DataPlacement,     ///< Paying the remote premium on misses a
                       ///< better distribution would serve locally.
    Capacity,          ///< Miss-count shift from the aggregate cache:
                       ///< positive = extra misses, negative = the
                       ///< superlinearity gain of Section 4.2.2.
};
inline constexpr int kNumCauses = 5;

/// Stable lower_snake identifier ("lock_serialization", ...).
const char* causeName(Cause c);
/// Human-readable title ("lock serialization", ...).
const char* causeTitle(Cause c);

/** One ranked entry of a verdict. */
struct CauseScore {
    Cause cause = Cause::Capacity;
    /// Aggregate processor-cycles attributed to this cause in the
    /// focus run (negative only for a Capacity gain).
    double lostCycles = 0;
    /// lostCycles / total positive losses; 0 when nothing was lost.
    double share = 0;
    /// The specific counters/latencies backing the attribution.
    std::vector<std::string> evidence;
};

/** Fixed-shape summary of one obs::LatencyHisto (heatmap row). */
struct HistoSummary {
    std::uint64_t count = 0;
    double mean = 0;
    sim::Cycles min = 0;
    sim::Cycles max = 0;
    std::array<std::uint64_t, obs::LatencyHisto::kBuckets> buckets{};
};

/** One epoch of the focus run's stacked time breakdown. */
struct EpochRow {
    sim::Cycles busy = 0;
    sim::Cycles memStall = 0;
    sim::Cycles lockWait = 0;
    sim::Cycles barrierWait = 0;
    sim::Cycles syncOp = 0;
    sim::Cycles total() const
    {
        return busy + memStall + lockWait + barrierWait + syncOp;
    }
};

/** A hot coherence line of the focus run (dashboard table row). */
struct HotLine {
    sim::LineAddr line = 0;
    std::string cls; ///< SharingProfiler::className of the line.
    std::uint64_t traffic = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t dirtyMisses = 0;
    std::uint64_t upgrades = 0;
    int procsTouched = 0;
    int wordsShared = 0;
};

/** Everything observed about one grid point (one machine size). */
struct RunObservation {
    int procs = 0;
    sim::Cycles time = 0;      ///< Completion time (max over procs).
    double speedup = 0;        ///< Versus the reference grid point.
    double efficiency = 0;     ///< speedup * refProcs / procs.
    sim::ProcTimes times;      ///< Summed over processors.
    sim::ProcCounters counters;///< Summed over processors.
    sim::Cycles maxBarrierWait = 0; ///< Worst single processor.
    sim::Cycles maxLockWait = 0;    ///< Worst single processor.
    analyze::SyncSummary sync; ///< Lock/barrier structure.
    bool traced = false;       ///< Histograms/epochs/lines valid.
    HistoSummary histLocal, histRemoteClean, histRemoteDirty,
        histUpgrade;
    std::vector<EpochRow> epochs;  ///< Stacked breakdown per epoch.
    std::vector<HotLine> hotLines; ///< Top lines by traffic.
};

/** The verdict for one application. */
struct AppDiagnosis {
    std::string app;
    std::uint64_t size = 0;
    /// Machine identity the grid ran under (ProtocolConfig::name /
    /// DirectoryConfig::name) — verdicts are only comparable within
    /// one protocol x directory-format combination.
    std::string protocol = "mesi";
    std::string dirFormat = "fullbv";
    bool ok = false;
    std::string error;           ///< Set when !ok (a run failed).
    std::vector<RunObservation> runs; ///< One per grid point, in
                                      ///< ascending machine size.
    std::vector<CauseScore> ranked;   ///< Highest loss first.
    bool scalesWell = false; ///< Efficiency >= 60% at the largest P.
    std::string verdict;     ///< One-line human-readable summary.

    const RunObservation& ref() const { return runs.front(); }
    const RunObservation& focus() const { return runs.back(); }
    /// Ranked entry for `c` (always present when ok).
    const CauseScore* score(Cause c) const;
};

/** Diagnosis knobs. */
struct DiagnoseOptions {
    /// Machine sizes to run; sorted and deduplicated. The smallest is
    /// the reference, the largest the focus of the verdict.
    std::vector<int> procs = {1, 8, 32};
    /// Problem size; 0 = the app's golden size (fast, regression-
    /// covered configuration).
    std::uint64_t size = 0;
    /// Epoch length override for the stacked dashboard series
    /// (0 = TraceConfig default).
    sim::Cycles epochCycles = 0;
    /// Hot lines to keep per app.
    std::size_t topLines = 10;
    /// Host-thread budget for the grid (StudyRunner); 0 = one per
    /// core.
    int jobs = 1;
    /// Per-run progress lines on stderr.
    bool progress = false;
    /// Coherence protocol / directory format the whole grid runs
    /// under (defaults match MachineConfig: mesi + fullbv).
    sim::ProtocolConfig protocol;
    sim::DirectoryConfig dirFormat;
};

/// Diagnose a registry app by name.
/// @throws std::invalid_argument for unknown names.
AppDiagnosis diagnoseApp(const std::string& name,
                         const DiagnoseOptions& opt = {});

/// Diagnose an arbitrary factory under `label` (synthetic-bottleneck
/// tests use this to feed the engine known pathologies).
AppDiagnosis diagnoseFactory(const std::string& label,
                             const core::AppFactory& factory,
                             const DiagnoseOptions& opt = {});

/// Diagnose every registered app (apps::listApps() order).
std::vector<AppDiagnosis> diagnoseAllApps(const DiagnoseOptions& opt = {});

/// Write the verdicts as one JSON document (schema
/// "ccnuma-diagnose-v2"; strict-parser clean, byte-deterministic).
/// v2 added the per-app "machine" object (protocol/dirFormat).
void writeDiagnoseJson(std::ostream& os,
                       const std::vector<AppDiagnosis>& results);
/// File wrapper; returns false on I/O error.
bool writeDiagnoseJsonFile(const std::string& path,
                           const std::vector<AppDiagnosis>& results);

/// Flatten one verdict into a MetricsSink (per-app labelled entry).
void emitMetrics(const AppDiagnosis& d, core::MetricsSink& sink);

} // namespace ccnuma::diagnose

#endif // CCNUMA_DIAGNOSE_DIAGNOSE_HH
