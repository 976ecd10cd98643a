/**
 * @file
 * The simulated machine: owns the topology, memory system, scheduler,
 * processors and synchronization objects, and runs application programs.
 */

#ifndef CCNUMA_SIM_MACHINE_HH
#define CCNUMA_SIM_MACHINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/recorder.hh"
#include "sim/memsys.hh"
#include "sim/scheduler.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/sync_observer.hh"
#include "sim/task.hh"
#include "sim/topology.hh"

namespace ccnuma::sim {

/**
 * One simulated CC-NUMA machine instance.
 *
 * Usage:
 *   Machine m(cfg);
 *   Addr a = m.alloc(bytes);             // shared arenas
 *   m.placeBlocked(a, bytes, order);     // optional manual placement
 *   BarrierId bar = m.barrierCreate();
 *   RunResult r = m.run([&](Cpu& cpu) -> Task { ... });
 *
 * A Machine runs one program; build a fresh Machine per experiment run.
 * Construction costs O(P), not O(P x cache size): each cache
 * initialises a set only when a fill first reaches it.
 */
class Machine
{
  public:
    using Program = std::function<Task(Cpu&)>;

    explicit Machine(const MachineConfig& cfg);

    /// Allocate `bytes` of shared address space, page-aligned.
    /// @throws std::overflow_error if the heap would pass the top of
    ///         the address space: the last address the caches' tags
    ///         cover (Cache::maxAddr(), 2^35 - 1 on the Origin L2).
    Addr alloc(std::uint64_t bytes);
    /// Allocate one cache line (for locks, flags, counters).
    Addr allocLine();

    /// The heap is [kHeapBase, heapEnd()): page 0 and the rest of the
    /// first MiB are never allocated.
    static constexpr Addr kHeapBase = 1u << 20;
    Addr heapEnd() const { return nextAddr_; }

    /// Manual page placement (no-ops unless Placement::Explicit).
    /// @throws std::invalid_argument if `node` is not in [0, numNodes).
    void place(Addr addr, std::uint64_t bytes, NodeId node);
    /// Place `bytes` from `addr` in contiguous blocks across the nodes of
    /// processes 0..nprocs-1 in order (the canonical manual layout).
    void placeAcrossProcs(Addr addr, std::uint64_t bytes);

    /// Create a barrier over `participants` processes (-1 = all).
    BarrierId barrierCreate(int participants = -1);
    /// Create a ticket lock.
    LockId lockCreate();

    /// Run `program` on every processor; returns per-processor stats.
    RunResult run(const Program& program);

    const MachineConfig& config() const { return cfg_; }
    Topology& topology() { return topo_; }
    MemSys& mem() { return mem_; }
    /// The run's observability bundle; null before run() or when
    /// cfg.trace enables nothing (also shared via RunResult::trace).
    const obs::Trace* trace() const { return trace_.get(); }

    /**
     * Attach (or detach with nullptr) a synchronization-and-memory
     * observer (see sim/sync_observer.hh for the ordering contract).
     * Attach before run(); the race analyzer in `ccnuma::analyze`
     * builds its happens-before graph from these callbacks.
     */
    void
    attachSyncObserver(SyncObserver* o)
    {
        syncObs_ = o;
        mem_.attachSyncObserver(o);
    }

    /**
     * Attach (or detach with nullptr) an operation recorder (see
     * sim/recorder.hh): it sees every machine-building call and every
     * per-processor operation, which is a complete replayable
     * description of the run. Attach before setup()/run().
     */
    void attachOpRecorder(OpRecorder* r) { rec_ = r; }

    /// Called by apps::TaskQueues when a steal succeeds (forwards the
    /// happens-before steal edge to the attached SyncObserver).
    void
    noteTaskSteal(ProcId thief, ProcId victim)
    {
        if (syncObs_)
            syncObs_->onTaskSteal(thief, victim);
    }

    // ---- called by Cpu ----
    bool barrierArrive(BarrierId b, Cpu& cpu);
    bool lockAcquire(LockId l, Cpu& cpu);
    void lockRelease(LockId l, Cpu& cpu);
    Scheduler& scheduler() { return sched_; }

  private:
    Cycles syncRmwCost(Cpu& cpu, Addr line, ProcId& last_holder);

    MachineConfig cfg_;
    Topology topo_;
    MemSys mem_;
    Scheduler sched_;
    std::vector<Cpu> cpus_;
    std::vector<Task> tasks_;
    std::deque<BarrierState> barriers_;
    std::deque<LockState> locks_;
    Addr nextAddr_ = kHeapBase;
    SyncObserver* syncObs_ = nullptr;
    OpRecorder* rec_ = nullptr;
    /// Suppresses onAlloc for the line allocation folded into a
    /// barrierCreate()/lockCreate() (replay recreates it implicitly).
    bool recMuted_ = false;
    bool ran_ = false;
    std::vector<ProcStats> stats_;
    std::shared_ptr<obs::Trace> trace_;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_MACHINE_HH
