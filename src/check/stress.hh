/**
 * @file
 * Randomized litmus/stress harness for the coherence protocol.
 *
 * A seeded generator builds an explicit per-processor operation trace
 * (reads, writes, LL-SC RMWs, prefetches, busy work, lock sections and
 * whole-machine barriers) over three footprints: a hot shared region,
 * a false-shared region (each processor touches its own word of the
 * same lines) and per-processor private regions. The executor drives
 * the trace through a Machine with a ScOracle attached, so every load
 * is checked against the sequential-consistency golden memory and the
 * full cache/directory invariants are swept at the configured cadence.
 *
 * Everything is a pure function of (options, seed): the simulator is
 * deterministic, the generator uses the repo's own xoshiro Rng, and
 * oracle violations are recorded rather than thrown — so a failing
 * seed re-runs bit-identically (StressReport::operator== compares a
 * hash of the complete timing, counter and directory state). Explicit
 * op traces are what makes automatic shrinking possible: see
 * shrink.hh.
 */

#ifndef CCNUMA_CHECK_STRESS_HH
#define CCNUMA_CHECK_STRESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace ccnuma::sim {
class SyncObserver;
}

namespace ccnuma::check {

/** One operation in a processor's trace. */
enum class OpKind : std::uint8_t {
    Read,     ///< Load from a footprint line.
    Write,    ///< Store to a footprint line.
    Rmw,      ///< LL-SC read-modify-write on a footprint line.
    Prefetch, ///< Non-binding prefetch of a footprint line.
    Busy,     ///< Compute for `slot` cycles.
    LockAcq,  ///< Acquire lock `slot` (paired with LockRel by group).
    LockRel,  ///< Release lock `slot`.
    Barrier,  ///< Whole-machine barrier (same group on every proc).
};

/** Footprint a memory op targets. */
enum class Region : std::uint8_t {
    Shared,      ///< Hot truly-shared lines (same word for everyone).
    FalseShared, ///< Shared lines, per-processor word within the line.
    Private,     ///< This processor's private lines.
};

/** One generated operation. */
struct Op {
    OpKind kind = OpKind::Busy;
    Region region = Region::Shared;
    std::uint32_t slot = 0;  ///< Line index / lock id / busy cycles.
    std::uint64_t group = 0; ///< Shrink unit; 0 = independently
                             ///< removable, else all ops sharing the
                             ///< id are removed together (lock
                             ///< acquire/release pairs, barrier
                             ///< instances across processors).
};

/** A complete generated program: one op trace per processor. */
struct StressProgram {
    std::vector<std::vector<Op>> ops; ///< Indexed by processor.
    int numLocks = 0;

    int procs() const { return static_cast<int>(ops.size()); }
    std::uint64_t numOps() const;
};

/** Generator/executor parameters. All defaults give a fast (~ms) run. */
struct StressOptions {
    std::uint64_t seed = 1;
    int procs = 8;
    int opsPerProc = 250;
    int sharedLines = 16;      ///< Hot truly-shared footprint (lines).
    int falseSharedLines = 8;  ///< False-shared footprint (lines).
    int privateLines = 32;     ///< Per-processor private lines.
    double writeFrac = 0.30;   ///< P(store) for plain memory ops.
    double rmwFrac = 0.06;     ///< P(LL-SC RMW).
    double prefetchFrac = 0.05;
    double busyFrac = 0.10;
    double sharedFrac = 0.45;      ///< P(hot shared region).
    double falseSharedFrac = 0.20; ///< P(false-shared region).
    double lockFrac = 0.04;    ///< P(open a lock section) per step.
    int numLocks = 2;
    int barriers = 3;          ///< Whole-machine barrier instances.
    std::uint64_t validateEvery = 512; ///< validateCoherence cadence.
    sim::CheckMutation mutation = sim::CheckMutation::None;

    /// Generate a properly-synchronized program: truly-shared lines are
    /// partitioned across the locks (line ≡ lock id mod numLocks) and
    /// touched only inside the owning lock's sections; outside lock
    /// sections only the false-shared and private regions are used.
    /// Such programs are data-race-free by construction — the race
    /// analyzer must report nothing on them, and must report races once
    /// CheckMutation::DropLockAcquire removes the locking.
    bool disciplined = false;

    /// Machine shape template (numProcs/check knobs are overridden by
    /// the fields above). Defaults to a small-cache round-robin-placed
    /// machine so evictions and remote misses are frequent.
    sim::MachineConfig machine = defaultMachine();

    static sim::MachineConfig defaultMachine();
};

/** Outcome of one stress execution (fully deterministic). */
struct StressReport {
    std::uint64_t seed = 0;
    bool failed = false;
    std::string message;       ///< First violation / error.
    std::uint64_t failCommit = 0; ///< Commit index of first violation.
    std::uint64_t commits = 0; ///< Load+store commits observed.
    std::uint64_t loadsChecked = 0;
    std::uint64_t validations = 0;
    std::uint64_t opsExecuted = 0; ///< Trace ops over all processors.
    sim::Cycles finalTime = 0;
    /// FNV-1a over the final time, the commit count, every
    /// processor's times and counters, and the final directory (each
    /// held entry's line, state, owner, overflow flag and sharers, in
    /// address order): one run's cycles, counters and coherence state.
    std::uint64_t stateHash = 0;

    bool operator==(const StressReport&) const = default;
};

/// Build the op traces for (options.seed, options).
StressProgram generate(const StressOptions& opt);

/// Execute a program under the oracle; never throws on violations.
/// `syncObs` (optional) is attached to the Machine for the run, so the
/// race analyzer can observe the same deterministic execution the
/// oracle checks.
StressReport execute(const StressProgram& prog, const StressOptions& opt,
                     sim::SyncObserver* syncObs = nullptr);

/// generate() + execute().
StressReport runStress(const StressOptions& opt);

/// Human-readable trace listing (the shrunk witness report).
std::string formatWitness(const StressProgram& prog);

} // namespace ccnuma::check

#endif // CCNUMA_CHECK_STRESS_HH
