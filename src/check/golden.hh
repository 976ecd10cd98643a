/**
 * @file
 * Golden-metrics regression harness.
 *
 * Snapshots the simulator's observable behaviour — sequential and
 * parallel cycle counts, speedup, and the aggregate event counters
 * (miss classes, upgrades, invalidations, writebacks, sync events) —
 * for a small configuration of every registered application variant,
 * into a versioned JSON baseline under tests/golden/. A regression
 * test recomputes the snapshot and diffs it against the committed
 * baseline: any protocol, scheduler, latency-model or app change that
 * shifts a number shows up as an explicit, reviewable diff, and
 * intentional changes are re-blessed with `ccnuma_verify golden
 * --bless`.
 *
 * The simulator is deterministic, so integer cycle counts and event
 * counters compare for exact equality; the derived speedup double uses
 * a tiny relative epsilon to absorb formatting round-trips.
 */

#ifndef CCNUMA_CHECK_GOLDEN_HH
#define CCNUMA_CHECK_GOLDEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ccnuma::check {

/** The golden numbers for one application variant. */
struct GoldenEntry {
    std::string name;
    std::uint64_t size = 0;   ///< Problem size used.
    sim::Cycles seqTime = 0;  ///< Uniprocessor-baseline cycles.
    sim::Cycles parTime = 0;  ///< Parallel-run cycles.
    double speedup = 0.0;
    // Aggregate event counters over all processors of the parallel run.
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t missLocal = 0;
    std::uint64_t missRemoteClean = 0;
    std::uint64_t missRemoteDirty = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t invalsSent = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t lockAcquires = 0;
    std::uint64_t barriersPassed = 0;
};

/** A complete snapshot: every registered app at one machine size. */
struct GoldenSnapshot {
    int version = 1;  ///< Schema version (bump on field changes).
    int procs = 4;    ///< Parallel machine size used.
    std::vector<GoldenEntry> entries;
};

/// apps::goldenSize. Kept only because perfbench calls it and the
/// benchmark harness changes only with the benchmark; new code must
/// not call it.
std::uint64_t goldenSize(const std::string& app);

/// Run every apps::listApps() variant at apps::goldenSize() on an
/// origin2000(procs) machine and collect the golden numbers.
GoldenSnapshot computeGolden(int procs = 4);

/// Serialize to the versioned JSON baseline format.
std::string toJson(const GoldenSnapshot& snap);

/// Load a baseline file; returns false with `err` set on I/O, parse or
/// schema errors (including an unexpected version).
bool loadGoldenFile(const std::string& path, GoldenSnapshot& out,
                    std::string& err);

/// Write a baseline file; returns false with `err` set on I/O errors.
bool writeGoldenFile(const std::string& path,
                     const GoldenSnapshot& snap, std::string& err);

/// Compare current against the baseline. Returns one human-readable
/// line per difference (missing/extra apps, any metric mismatch);
/// empty means the regression gate passes.
std::vector<std::string> diffGolden(const GoldenSnapshot& baseline,
                                    const GoldenSnapshot& current);

} // namespace ccnuma::check

#endif // CCNUMA_CHECK_GOLDEN_HH
