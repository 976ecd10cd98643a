/**
 * @file
 * The per-processor programming interface seen by application skeletons.
 *
 * Memory/busy operations are plain method calls (they advance this
 * processor's clock and update contention state); `checkpoint()` is an
 * awaitable yield point, and `barrier()`/`acquire()` are awaitable
 * blocking synchronization operations.
 */

#ifndef CCNUMA_SIM_CPU_HH
#define CCNUMA_SIM_CPU_HH

#include <coroutine>

#include "obs/trace.hh"
#include "sim/memsys.hh"
#include "sim/recorder.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

class Machine;
class Scheduler;

/** One simulated processor's execution context. */
class Cpu
{
  public:
    Cpu(Machine& m, MemSys& mem, Scheduler& sched, ProcStats& st,
        ProcId id, int nprocs)
        : machine_(&m), mem_(&mem), sched_(&sched), stats_(&st), id_(id),
          nprocs_(nprocs)
    {
    }

    // ---- identity ----
    ProcId id() const { return id_; }
    int nprocs() const { return nprocs_; }
    NodeId node() const { return mem_->nodeOfProcess(id_); }
    Cycles now() const { return now_; }

    // ---- non-suspending operations ----
    /// Compute for `c` cycles.
    void
    busy(Cycles c)
    {
        if (rec_) [[unlikely]]
            rec_->onOp(id_, OpKind::Busy, c);
        if (trace_)
            trace_->addBusy(id_, now_, c);
        now_ += c;
        stats_->t.busy += c;
    }
    /// Load from `addr`.
    void
    read(Addr addr)
    {
        if (rec_) [[unlikely]]
            rec_->onOp(id_, OpKind::Read, addr);
        const Cycles l = mem_->access(id_, now_, addr, false, *stats_);
        if (trace_)
            trace_->addMemStall(id_, now_, l);
        now_ += l;
        stats_->t.memStall += l;
    }
    /// Store to `addr`.
    void
    write(Addr addr)
    {
        if (rec_) [[unlikely]]
            rec_->onOp(id_, OpKind::Write, addr);
        const Cycles l = mem_->access(id_, now_, addr, true, *stats_);
        if (trace_)
            trace_->addMemStall(id_, now_, l);
        now_ += l;
        stats_->t.memStall += l;
    }
    /// Software prefetch of the line containing `addr` (non-binding).
    void
    prefetch(Addr addr)
    {
        if (rec_) [[unlikely]]
            rec_->onOp(id_, OpKind::Prefetch, addr);
        mem_->prefetch(id_, now_, addr, *stats_);
        if (trace_)
            trace_->addBusy(id_, now_, 1);
        now_ += 1; // issue slot
        stats_->t.busy += 1;
    }
    /// Touch every line in [addr, addr+bytes) with loads.
    void readRange(Addr addr, std::uint64_t bytes);
    /// Touch every line in [addr, addr+bytes) with stores.
    void writeRange(Addr addr, std::uint64_t bytes);
    /// Uncached at-memory fetch&op (Section 6.3).
    void
    fetchOp(Addr addr)
    {
        if (rec_) [[unlikely]]
            rec_->onOp(id_, OpKind::FetchOp, addr);
        const Cycles l = mem_->fetchOp(id_, now_, addr, *stats_);
        if (trace_)
            trace_->addMemStall(id_, now_, l);
        now_ += l;
        stats_->t.memStall += l;
    }
    /// LL-SC read-modify-write on a cached line (acquires ownership).
    void
    rmw(Addr addr)
    {
        if (rec_) [[unlikely]]
            rec_->onOp(id_, OpKind::Rmw, addr);
        const Cycles l = mem_->llscRmw(id_, now_, addr, *stats_);
        if (trace_)
            trace_->addMemStall(id_, now_, l);
        now_ += l;
        stats_->t.memStall += l;
    }

    // ---- awaitable yield point ----
    struct Checkpoint {
        Cpu& cpu;
        bool
        await_ready() const noexcept
        {
            return !cpu.quantumUp() || cpu.yieldInPlace();
        }
        void await_suspend(std::coroutine_handle<>) const noexcept {}
        void await_resume() const noexcept {}
    };
    /// Yield to the scheduler if this processor ran past its quantum
    /// (suspending only if another processor is now earlier).
    /// Call this in every outer loop iteration of application code.
    Checkpoint
    checkpoint()
    {
        if (rec_) [[unlikely]]
            rec_->onOp(id_, OpKind::Checkpoint, 0);
        return Checkpoint{*this};
    }

    /**
     * Yield point for *nested* coroutines (phases written as their own
     * Task, driven by the top-level program with CCNUMA_RUN_NESTED).
     * Suspends the nested coroutine without touching the scheduler; the
     * driving loop in the top-level coroutine forwards the yield via a
     * regular checkpoint().
     */
    struct NestedCheckpoint {
        Cpu& cpu;
        bool await_ready() const noexcept { return !cpu.quantumUp(); }
        void await_suspend(std::coroutine_handle<>) const noexcept {}
        void await_resume() const noexcept {}
    };
    NestedCheckpoint
    nestedCheckpoint()
    {
        // A nested checkpoint is semantically one top-level checkpoint
        // (when it fires, the CCNUMA_RUN_NESTED driver's follow-up
        // checkpoint() suspends with the same quantum state), so it is
        // recorded; the driver's own checkpoint() records a second
        // consecutive Checkpoint op, which replays as a no-op (a fresh
        // quantum after resume never re-fires immediately).
        if (rec_) [[unlikely]]
            rec_->onOp(id_, OpKind::Checkpoint, 0);
        return {*this};
    }

    // ---- nested blocking-sync protocol (used by CCNUMA_RUN_NESTED) ----
    /// Awaitable that suspends the top-level coroutine without
    /// rescheduling: used by the nested driver when the nested phase
    /// blocked on synchronization (the grant will ready() us).
    struct PlainSuspend {
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<>) const noexcept {}
        void await_resume() const noexcept {}
    };
    PlainSuspend suspendPlain() { return {}; }
    void enterNested() { ++nestedDepth_; }
    void exitNested() { --nestedDepth_; }
    /// True (and clears the flag) if the last nested suspension was a
    /// synchronization block rather than a quantum yield.
    bool
    consumeNestedBlock()
    {
        const bool b = nestedBlocked_;
        nestedBlocked_ = false;
        return b;
    }

    // ---- awaitable blocking synchronization ----
    /// A nested SyncAwait always suspends when it yields: the
    /// CCNUMA_RUN_NESTED driver then issues (and records) the
    /// follow-up checkpoint() that keeps running or suspends.
    struct SyncAwait {
        Cpu& cpu;
        bool blocked;
        bool
        await_ready() const noexcept
        {
            return !blocked &&
                   (!cpu.quantumUp() ||
                    (cpu.nestedDepth_ == 0 && cpu.yieldInPlace()));
        }
        void
        await_suspend(std::coroutine_handle<>) const noexcept
        {
            if (blocked)
                cpu.markBlocked();
            else if (cpu.nestedDepth_ > 0)
                cpu.reschedule();
        }
        void await_resume() const noexcept {}
    };
    /// Arrive at a barrier; resumes when all participants have arrived.
    SyncAwait barrier(BarrierId b);
    /// Acquire a ticket lock; resumes when the lock is granted.
    SyncAwait acquire(LockId l);
    /// Release a ticket lock (never blocks).
    void release(LockId l);

    // ---- accounting hooks used by Machine's sync layer ----
    ProcStats& stats() { return *stats_; }
    const ProcStats& stats() const { return *stats_; }
    void attachTrace(obs::Trace* t) { trace_ = t; }
    /// Mirror every operation this processor issues into `r` (trace
    /// recording; see sim/recorder.hh).
    void attachRecorder(OpRecorder* r) { rec_ = r; }
    void
    chargeSyncOp(Cycles c)
    {
        if (trace_)
            trace_->addSyncOp(id_, now_, c);
        now_ += c;
        stats_->t.syncOp += c;
    }
    /// What a synchronization wait was spent on (partitions syncWait
    /// into ProcTimes::lockWait / ProcTimes::barrierWait).
    enum class WaitKind : std::uint8_t { Lock, Barrier };
    void
    chargeSyncWait(Cycles c, WaitKind kind)
    {
        if (trace_)
            trace_->addSyncWait(id_, now_, c, kind == WaitKind::Lock);
        now_ += c;
        stats_->t.syncWait += c;
        if (kind == WaitKind::Lock)
            stats_->t.lockWait += c;
        else
            stats_->t.barrierWait += c;
    }
    /// Wake a blocked processor at absolute time `t`, charging the gap
    /// since it blocked as synchronization wait time.
    void
    wakeAt(Cycles t, WaitKind kind)
    {
        if (t > now_)
            chargeSyncWait(t - now_, kind);
    }

    void beginQuantum(Cycles quantum) { quantumEnd_ = now_ + quantum; }
    bool quantumUp() const { return now_ >= quantumEnd_; }

    Machine& machine() { return *machine_; }
    MemSys& mem() { return *mem_; }

  private:
    void reschedule();  ///< Re-queue self at `now_` (yield).
    /// Quantum up at a yield point: re-queue self at `now_`; if still
    /// the earliest runnable processor, start a fresh quantum and
    /// return true (keep running, no suspension).
    bool yieldInPlace();
    void markBlocked(); ///< Flag a nested synchronization block.

    Machine* machine_;
    MemSys* mem_;
    Scheduler* sched_;
    ProcStats* stats_;
    obs::Trace* trace_ = nullptr;
    OpRecorder* rec_ = nullptr;
    ProcId id_;
    int nprocs_;
    Cycles now_ = 0;
    Cycles quantumEnd_ = 0;
    int nestedDepth_ = 0;
    bool nestedBlocked_ = false;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_CPU_HH
