/**
 * @file
 * Min-time scheduler interleaving the per-processor coroutines.
 *
 * Processors run in approximate global-time order: a processor executes
 * until it exceeds its quantum past the point it was scheduled at (or
 * blocks on synchronization), then the globally earliest runnable
 * processor runs next. Contention clocks therefore see accesses in
 * near-sorted time order, with disorder bounded by the quantum.
 */

#ifndef CCNUMA_SIM_SCHEDULER_HH
#define CCNUMA_SIM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "sim/task.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

class Cpu;

/**
 * Winner tree over the processors' ready keys: one leaf per processor,
 * keyed by (time, seq), each internal node holding the smaller key of
 * its two children. Leaves live at [n, 2n) and node i's children at 2i
 * and 2i+1, so any n works and a re-key costs one leaf-to-root path.
 *
 * Ordering contract: keys order by time, then by the seq of the
 * ready() that set them; readying an already-queued processor at its
 * queued time keeps the earlier seq, at any other time takes a fresh
 * one. That is the order of a heap holding one entry per ready() and
 * skipping entries whose processor has since been re-readied at
 * another time, so simulated results do not depend on which of the
 * two the scheduler uses. The dispatched processor's leaf keeps its
 * spent dispatch key until the processor re-keys or goes idle, so
 * dispatch itself costs nothing.
 *
 * A key is one 128-bit integer, time << 64 | seq << 9 | proc: integer
 * order is (time, seq) order, since seqs are unique (55 bits of them
 * outlast any run), and the winner's processor is the root's low bits.
 * So each level of a re-key is one branch-free minimum, not two
 * data-dependent compares that the host would mispredict.
 */
class ReadyTree
{
  public:
    /// Size for `n` processors, all idle.
    void
    reset(int n)
    {
        n_ = n;
        node_.assign(2 * static_cast<std::size_t>(n), kIdle);
        seq_ = 0;
        running_ = kNoProc;
    }

    /// Make `p` runnable at `t` (see the ordering contract).
    void
    ready(ProcId p, Cycles t)
    {
        Key& leaf = node_[n_ + p];
        if (static_cast<Cycles>(leaf >> 64) == t && p != running_)
            return; // still queued at t: the earlier seq stands
        if (p == running_)
            running_ = kNoProc;
        leaf = Key{t} << 64 | Key{seq_++} << kProcBits |
               static_cast<unsigned>(p);
        update(p);
    }
    /// Take `p` out of contention (blocked or finished).
    void
    idle(ProcId p)
    {
        if (p == running_)
            running_ = kNoProc;
        node_[n_ + p] = kIdle;
        update(p);
    }

    /// The earliest runnable processor, or kNoProc if none is.
    ProcId
    top() const
    {
        const auto p = static_cast<ProcId>(node_[1] & kProcMask);
        return p == kProcMask ? kNoProc : p;
    }
    /// Dispatch top(): it becomes running() until it re-keys or goes
    /// idle. Returns kNoProc (and dispatches nothing) if none is ready.
    ProcId dispatch() { return running_ = top(); }
    ProcId running() const { return running_; }

  private:
    using Key = unsigned __int128;
    static constexpr int kProcBits = 9;
    static constexpr unsigned kProcMask = (1u << kProcBits) - 1;
    static_assert(kMaxProcs <= kProcMask, "an idle leaf's proc field "
                                          "must name no processor");
    /// Sorts after every runnable key; its proc field reads kProcMask.
    static constexpr Key kIdle = ~Key{0};

    /// Recompute the winners on the path from p's leaf to the root.
    void
    update(ProcId p)
    {
        std::size_t i = n_ + p;
        Key k = node_[i];
        for (; i > 1; i >>= 1) {
            const Key s = node_[i ^ 1];
            k ^= (k ^ s) & -Key(s < k); // min(k, s) without a branch
            node_[i >> 1] = k;
        }
    }

    std::vector<Key> node_; ///< [1, n): winners; [n, 2n): leaves
    std::size_t n_ = 0;
    std::uint64_t seq_ = 0;
    ProcId running_ = kNoProc;
};

/** Cooperative scheduler over the simulated processors. */
class Scheduler
{
  public:
    /// Drive `cpus`, one tree leaf each. Call before spawn().
    void attach(std::vector<Cpu>* cpus);
    void setQuantum(Cycles q) { quantum_ = q; }
    Cycles quantum() const { return quantum_; }
    void
    spawn(ProcId p, Task::Handle h)
    {
        handle_[p] = h;
        ready(p, 0);
        ++live_;
    }

    /// Make a blocked (or yielding) processor runnable at `time`.
    /// Inline: called once per synchronization wake-up.
    void ready(ProcId p, Cycles time) { tree_.ready(p, time); }

    /// The running processor `p` reached a yield point at `now` with
    /// its quantum up: re-key it at `now`. True if it is still the
    /// earliest runnable processor, i.e. exactly when a suspension
    /// would dispatch it again next; it then keeps running in place.
    bool
    yield(ProcId p, Cycles now)
    {
        tree_.ready(p, now);
        if (tree_.top() != p)
            return false;
        tree_.dispatch();
        return true;
    }

    /// Run until every spawned processor finishes.
    /// @throws std::runtime_error on deadlock.
    void run();

    /// Coroutine resumes so far (yields kept in place do not count).
    std::uint64_t dispatches() const { return dispatches_; }

  private:
    std::vector<Cpu>* cpus_ = nullptr;
    std::vector<Task::Handle> handle_;
    ReadyTree tree_;
    int live_ = 0;
    Cycles quantum_ = 2000;
    std::uint64_t dispatches_ = 0;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_SCHEDULER_HH
