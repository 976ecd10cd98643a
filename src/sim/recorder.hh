/**
 * @file
 * Operation-recording hook for the trace record/replay facility.
 *
 * An OpRecorder attached to a Machine (Machine::attachOpRecorder) sees
 * two streams:
 *
 *  - the machine-building calls an application makes in setup() —
 *    alloc, barrier/lock creation, explicit page placement — in call
 *    order, and
 *  - every per-processor operation (the full OpKind alphabet below:
 *    memory ops, busy time, yield points, synchronization) at the
 *    moment the program issues it.
 *
 * Together the two streams are a complete, replayable description of
 * the run: re-issuing the building calls in order reproduces the
 * address-space layout (arena bases, lock/barrier lines) exactly, and
 * re-issuing each processor's operation stream reproduces the
 * simulation bit-for-bit, because the engine is deterministic
 * in (config, per-processor operation streams). apps::TraceReplayApp
 * (apps/trace.hh) is that replayer.
 *
 * When no recorder is attached the cost is one predictable null test
 * per operation — the same contract as the obs::Trace and SyncObserver
 * hooks.
 */

#ifndef CCNUMA_SIM_RECORDER_HH
#define CCNUMA_SIM_RECORDER_HH

#include <cstdint>

#include "sim/types.hh"

namespace ccnuma::sim {

/** The kind of one processor operation (see Cpu for the semantics). */
enum class OpKind : std::uint8_t {
    Read,       ///< arg = address
    Write,      ///< arg = address
    Busy,       ///< arg = cycles
    Prefetch,   ///< arg = address
    FetchOp,    ///< arg = address
    Rmw,        ///< arg = address
    Checkpoint, ///< quantum yield point (no arg)
    Barrier,    ///< arg = BarrierId::idx
    Acquire,    ///< arg = LockId::idx
    Release,    ///< arg = LockId::idx
};

/** Observer of machine building and the per-processor op streams. */
class OpRecorder
{
  public:
    virtual ~OpRecorder() = default;

    // ---- machine building (App::setup, or mid-run) ----
    /// Machine::alloc(bytes) was called (page-rounded by the machine;
    /// also fired for a direct allocLine(), as its one-line alloc).
    virtual void onAlloc(std::uint64_t bytes) = 0;
    /// Machine::barrierCreate(participants) was called (`participants`
    /// already resolved, never negative). The barrier's internal line
    /// allocation is folded in — it is not reported through onAlloc.
    virtual void onBarrierCreate(int participants) = 0;
    /// Machine::lockCreate() was called (line allocation folded in).
    virtual void onLockCreate() = 0;
    /// Machine::place(addr, bytes, node) was called.
    virtual void onPlace(Addr addr, std::uint64_t bytes,
                         NodeId node) = 0;
    /// Machine::placeAcrossProcs(addr, bytes) was called.
    virtual void onPlaceAcross(Addr addr, std::uint64_t bytes) = 0;

    // ---- program execution ----
    /// Processor `p` issued one operation (see sim::OpKind for the
    /// meaning of `arg`). Fired at issue, in per-processor program
    /// order; the machine's engine makes the global order
    /// deterministic.
    virtual void onOp(ProcId p, OpKind kind, std::uint64_t arg) = 0;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_RECORDER_HH
