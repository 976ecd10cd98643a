/**
 * @file
 * Per-processor time and event accounting, and the execution-time
 * breakdown (Busy / Memory / Synchronization) used throughout the paper's
 * figures.
 */

#ifndef CCNUMA_SIM_STATS_HH
#define CCNUMA_SIM_STATS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ccnuma::obs {
class Trace;
} // namespace ccnuma::obs

namespace ccnuma::sim {

/** Event counters for one processor. */
struct ProcCounters {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t missLocal = 0;
    std::uint64_t missRemoteClean = 0;
    std::uint64_t missRemoteDirty = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t invalsSent = 0;
    std::uint64_t invalsReceived = 0;
    /// Fan-out messages (invalidations or updates) a compressed
    /// directory format (coarse:K / ptr:N) sent to processors holding
    /// no copy — the over-invalidation cost. Always 0 under fullbv.
    std::uint64_t invalsSpurious = 0;
    /// Update-based protocols only (Dragon): copies refreshed in place
    /// by this processor's stores / refreshed at this processor.
    std::uint64_t updatesSent = 0;
    std::uint64_t updatesReceived = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesUseful = 0;
    std::uint64_t pageMigrations = 0;
    std::uint64_t lockAcquires = 0;
    /// Acquires that found the lock held and had to queue (the
    /// contended subset of lockAcquires; a convoy shows up here).
    std::uint64_t lockContended = 0;
    std::uint64_t barriersPassed = 0;

    std::uint64_t misses() const
    {
        return missLocal + missRemoteClean + missRemoteDirty;
    }
    std::uint64_t remoteMisses() const
    {
        return missRemoteClean + missRemoteDirty;
    }
};

/** Time accumulators for one processor (cycles). */
struct ProcTimes {
    Cycles busy = 0;     ///< Computation.
    Cycles memStall = 0; ///< Waiting for cache misses (incl. hits' cost).
    Cycles syncWait = 0; ///< Idle at barriers / contended locks.
    Cycles syncOp = 0;   ///< Cost of synchronization operations.
    /// Exact partition of syncWait by what the processor waited *on*:
    /// lockWait + barrierWait == syncWait always. The split is what
    /// lets ccnuma::diagnose tell lock serialization from barrier
    /// imbalance without re-deriving it from the event trace.
    Cycles lockWait = 0;    ///< syncWait spent blocked on lock grants.
    Cycles barrierWait = 0; ///< syncWait spent waiting at barriers.

    Cycles total() const { return busy + memStall + syncWait + syncOp; }
    Cycles sync() const { return syncWait + syncOp; }
};

/** Full stats for one processor. */
struct ProcStats {
    ProcTimes t;
    ProcCounters c;
};

/** Busy/Memory/Sync fractions of an execution (Figure 3 style). */
struct Breakdown {
    double busy = 0, mem = 0, sync = 0;
};

/** Result of one simulated run. */
struct RunResult {
    Cycles time = 0;                ///< Max completion time over procs.
    std::vector<ProcStats> procs;   ///< Indexed by logical process.
    std::uint64_t pageMigrations = 0;
    /// Observability bundle (events/epochs/sharing); non-null only when
    /// MachineConfig::trace enabled something and tracing is compiled
    /// in. See obs/trace.hh and obs/export.hh.
    std::shared_ptr<const obs::Trace> trace;

    /// Average breakdown across processors, normalized per processor.
    Breakdown breakdown() const;
    /// Per-processor breakdown, normalizing against that proc's total.
    Breakdown breakdown(int p) const;
    /// Aggregate counters summed over processors.
    ProcCounters totals() const;
};

/// speedup = seq_time / par_time.
inline double
speedup(Cycles seq_time, Cycles par_time)
{
    return par_time == 0 ? 0.0
                         : static_cast<double>(seq_time) / par_time;
}

/// Parallel efficiency = speedup / nprocs (the paper's primary metric).
inline double
efficiency(Cycles seq_time, Cycles par_time, int nprocs)
{
    return nprocs == 0 ? 0.0 : speedup(seq_time, par_time) / nprocs;
}

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_STATS_HH
