/**
 * @file
 * Machine configuration for the simulated CC-NUMA multiprocessor.
 *
 * Default values calibrate the simulator to the 195 MHz SGI Origin2000
 * described in the paper (Jiang & Singh, ISCA 1999): 338 ns local miss,
 * 656 ns nearest remote-clean miss and 892 ns remote-dirty miss (Table 1),
 * a 4 MB 2-way L2 with 128-byte lines, 16 KB pages, two processors per
 * node sharing a Hub, and two nodes per router.
 */

#ifndef CCNUMA_SIM_CONFIG_HH
#define CCNUMA_SIM_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/protocol.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

/** Page placement policy applied by the page table. */
enum class Placement {
    FirstTouch,  ///< Page homed at the node of the first toucher.
    RoundRobin,  ///< Pages homed round-robin across nodes.
    Explicit,    ///< Application-directed placement (the "manual" scheme).
};

/** How simulated processes are mapped onto physical processors. */
enum class Mapping {
    Linear,       ///< Process i runs on processor i.
    Random,       ///< Seeded random permutation of processes.
    PairedRandom, ///< Process pairs (2i, 2i+1) stay co-located on a node,
                  ///< but node assignment is a random permutation.
};

/** Synchronization primitive implementation style (Section 6.3). */
enum class SyncKind {
    LLSC,    ///< Load-linked/store-conditional on cached lines.
    FetchOp, ///< At-memory uncached fetch&op as on the Origin Hub.
};

/** Barrier algorithm selector (Section 6.3). */
enum class BarrierAlg {
    Tournament,  ///< O(log P) tournament barrier.
    Centralized, ///< Single counter + sense-reversal flag.
};

/**
 * Observability knobs (the `ccnuma::obs` subsystem). All three layers
 * are purely observational — enabling them never changes simulated
 * cycle counts — and all default off. With all three off, no trace is
 * attached and every hook is one not-taken `trace_` test.
 */
struct TraceConfig {
    /// Capture typed protocol events into a ring buffer.
    bool events = false;
    /// Slice counters/times into epochs and build latency histograms.
    bool intervals = false;
    /// Attribute coherence traffic to lines/pages (true/false sharing).
    bool sharing = false;
    /// Ring-buffer capacity in records (oldest overwritten on wrap).
    std::size_t ringCapacity = 1u << 20;
    /// Epoch length for the interval metrics, in cycles.
    Cycles epochCycles = 100000;

    bool any() const { return events || intervals || sharing; }
};

/**
 * Deliberate protocol mutations for harness self-tests: the
 * verification suite proves the SC oracle has teeth by breaking one
 * transition and asserting the break is detected. Each hook is one
 * enum compare on the invalidation, eviction or lock path.
 */
enum class CheckMutation : std::uint8_t {
    None,             ///< Correct protocol (the only production value).
    SkipInvalidation, ///< Spare the first sharer of every invalidation
                      ///< fan-out, leaving it a stale cached copy.
    DropLockAcquire,  ///< De-synchronize the program: lock acquires are
                      ///< charged but never take the lock (no mutual
                      ///< exclusion, no happens-before edges), and the
                      ///< matching releases are no-ops. The race
                      ///< analyzer (ccnuma::analyze) must catch the
                      ///< resulting data races.
    CorruptMoesiTable, ///< Corrupt the machine's (private) protocol
                       ///< transition table: the remote-write x Shared
                       ///< cell forgets its invalidation, leaving every
                       ///< sharer of a written line a stale copy. Built
                       ///< for the MOESI table self-test, but breaks any
                       ///< invalidation-based protocol the same way.
    DropOwnedWriteback, ///< Evicting an Owned victim forgets the
                        ///< memory writeback: the remaining copies go
                        ///< Shared while home memory keeps the stale
                        ///< pre-ownership value (the dropped-action
                        ///< sibling of DropLockAcquire, at the
                        ///< protocol layer; MOESI/Dragon only). The
                        ///< model checker must find it exhaustively.
};

/**
 * Verification knobs (the `ccnuma::check` subsystem): how often to
 * sweep the coherence invariants, and which deliberate fault to
 * inject. There is one protocol engine and one directory, with no
 * live reference copy to switch to; their exact outcomes are pinned as
 * stress digests (cycles, counters, final directory state) in
 * tests/test_protocols.cc.
 */
struct CheckConfig {
    /// When > 0, the SC oracle attached to this machine re-runs
    /// MemSys::validateCoherence() every `validateEvery` commits
    /// (loads+stores), catching invariant breaks close to where they
    /// happen. 0 disables cadence validation (end-of-run checks only).
    std::uint64_t validateEvery = 0;
    /// Deliberately broken protocol transition (see CheckMutation).
    CheckMutation mutation = CheckMutation::None;
};

/**
 * Full parameterization of the simulated machine.
 *
 * All latencies are in processor cycles; helpers below compose them into
 * the end-to-end transaction latencies of Table 1.
 */
struct MachineConfig {
    /// Total processors. Must be a multiple of procsPerNode.
    int numProcs = 32;
    /// Processors sharing one node (Hub + memory). Origin2000: 2.
    int procsPerNode = 2;
    /// Nodes sharing one router. Origin2000: 2.
    int nodesPerRouter = 2;
    /// Processors per hypercube module; >= numProcs means no metarouters.
    /// The paper's 128p machine is four 32p modules joined by metarouters.
    int procsPerModule = 32;

    /// Processor clock in MHz (195 MHz R10000).
    double clockMHz = 195.0;

    /// Unified L2 cache size in bytes (4 MB).
    std::uint64_t cacheBytes = 4u << 20;
    /// L2 associativity (2-way).
    int cacheAssoc = 2;
    /// Cache line size in bytes (128 B).
    std::uint32_t lineBytes = 128;
    /// Page size in bytes (16 KB).
    std::uint32_t pageBytes = 16u << 10;

    // ---- Latency components (cycles) ----
    /// L2 hit cost charged as memory stall.
    Cycles l2HitCycles = 8;
    /// Processor-side issue overhead per miss (each direction).
    Cycles procCycles = 4;
    /// Hub service latency; also its occupancy per traversal.
    Cycles hubCycles = 7;
    /// DRAM access latency at the home memory.
    Cycles memCycles = 40;
    /// Memory occupancy per line transfer (bandwidth model).
    Cycles memOccupancy = 40;
    /// Hub occupancy per transaction traversal.
    Cycles hubOccupancy = 10;
    /// Directory lookup/update cost at the home Hub.
    Cycles dirCycles = 4;
    /// Per-router-hop latency, each direction.
    Cycles routerCycles = 10;
    /// Link/NI cost per network traversal (fixed part, each direction).
    Cycles linkCycles = 14;
    /// Router occupancy per traversal.
    Cycles routerOccupancy = 3;
    /// Extra metarouter hop latency per crossing (each direction).
    Cycles metaRouterCycles = 24;
    /// Metarouter occupancy per crossing.
    Cycles metaRouterOccupancy = 5;

    // ---- Coherence protocol & directory format ----
    /// Protocol choice plus its latency knobs (see sim/protocol.hh).
    /// Select with ProtocolConfig::parse("mesi"|"moesi"|"dragon").
    ProtocolConfig protocol;
    /// Directory sharer representation ("fullbv"|"coarse:K"|"ptr:N").
    DirectoryConfig dirFormat;

    // ---- Policies ----
    Placement placement = Placement::Explicit;
    Mapping mapping = Mapping::Linear;
    std::uint64_t mappingSeed = 12345;
    SyncKind syncKind = SyncKind::LLSC;
    BarrierAlg barrierAlg = BarrierAlg::Tournament;

    /// Enable dynamic page migration (Section 6.2).
    bool pageMigration = false;
    /// Remote-access excess over home accesses that triggers migration.
    std::uint32_t migrationThreshold = 128;
    /// Cost to migrate one page, cycles: page copy plus TLB
    /// shootdown/OS involvement (~100us on IRIX-class systems).
    /// Charged at both memories; a quarter stalls the triggering
    /// access (the page is unavailable mid-move).
    Cycles migrationCycles = 20000;

    /// Observability configuration (see TraceConfig).
    TraceConfig trace;

    /// Verification configuration (see CheckConfig).
    CheckConfig check;

    /// Use only one processor per node, leaving the sibling idle
    /// (Section 7.2). The machine then spans numProcs nodes.
    bool oneProcPerNode = false;

    /// Scheduler quantum: max cycles a processor runs ahead of the
    /// globally slowest runnable processor before yielding. Keep this
    /// within a few transaction service times: execution-order disorder
    /// (and thus contention-clock error) is bounded by the quantum.
    Cycles quantum = 500;

    // ---- Derived helpers ----
    int numNodes() const
    {
        const int ppn = oneProcPerNode ? 1 : procsPerNode;
        return (numProcs + ppn - 1) / ppn;
    }
    int numRouters() const
    {
        const int r = numNodes() / nodesPerRouter;
        return r < 1 ? 1 : r;
    }
    int nodesPerModule() const
    {
        int n = procsPerModule / (oneProcPerNode ? 1 : procsPerNode);
        return n < nodesPerRouter ? nodesPerRouter : n;
    }
    bool hasMetaRouters() const { return numNodes() > nodesPerModule(); }
    double nsPerCycle() const { return 1000.0 / clockMHz; }
    std::uint64_t numSets() const
    {
        return cacheBytes / (static_cast<std::uint64_t>(lineBytes) *
                             cacheAssoc);
    }

    /// Validate invariants; returns an error string or empty on success.
    std::string validate() const;

    /// Returns `*this`. Kept only because perfbench/sim_workloads.cc
    /// calls it and the benchmark harness changes only with the
    /// benchmark; new code must not call it.
    MachineConfig resolved() const { return *this; }

    // ---- Named presets ----
    /// The paper's machine: an Origin2000 with `numProcs` processors
    /// (two per node, Table 1 latencies — i.e. the defaults above).
    static MachineConfig origin2000(int numProcs);
    /// A one-processor Origin2000 node: the speedup-baseline machine.
    static MachineConfig uniprocessor();
    /// The uniprocessor baseline for *this* machine: same parameters,
    /// one processor, no tracing (the baseline is only timed). This is
    /// the paper's methodology — the sequential reference runs on
    /// identical hardware, so speedups isolate parallel behavior.
    MachineConfig baseline() const;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_CONFIG_HH
