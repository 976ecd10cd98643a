/**
 * @file
 * The coherent memory system: per-processor L2 caches, the full-bit-vector
 * directory protocol, page homing/migration, and queued-resource
 * contention at Hubs, node memories and metarouters.
 *
 * Latency composition follows the Origin2000 transaction flows:
 *  - local miss:     proc -> hub -> dir+mem -> hub -> proc
 *  - remote clean:   proc -> hub -> net -> home hub -> dir+mem -> net -> ...
 *  - remote dirty:   3-hop; home forwards to the owner, which supplies the
 *                    line directly to the requester.
 * Contention is modelled with busy-until timestamps at the requester Hub,
 * home Hub, home memory, the dirty owner's Hub, invalidated sharers' Hubs
 * and any metarouter crossed. (Ordinary routers are treated as
 * contention-free: on the real machine their occupancy per flit is far
 * below Hub/memory occupancy; metarouters are shared by whole modules and
 * are kept as contention points.)
 */

#ifndef CCNUMA_SIM_MEMSYS_HH
#define CCNUMA_SIM_MEMSYS_HH

#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "sim/cache.hh"
#include "sim/commit.hh"
#include "sim/config.hh"
#include "sim/directory.hh"
#include "sim/pagetable.hh"
#include "sim/protocol.hh"
#include "sim/stats.hh"
#include "sim/sync_observer.hh"
#include "sim/topology.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

/**
 * Per-processor pending prefetch fills: (line, ready time). A
 * processor has at most a handful outstanding, so a flat vector with
 * linear scan stays inside one or two cache lines — far cheaper than
 * the hash map it replaced, whose empty() fast path alone cost a
 * pointer chase.
 */
class PendingFills
{
  public:
    bool empty() const { return v_.empty(); }

    /// Ready time for `line`, or nullptr.
    const Cycles*
    find(LineAddr line) const
    {
        for (const auto& [l, t] : v_)
            if (l == line)
                return &t;
        return nullptr;
    }

    void
    erase(LineAddr line)
    {
        for (auto& kv : v_)
            if (kv.first == line) {
                kv = v_.back();
                v_.pop_back();
                return;
            }
    }

    void
    set(LineAddr line, Cycles ready)
    {
        for (auto& kv : v_)
            if (kv.first == line) {
                kv.second = ready;
                return;
            }
        v_.emplace_back(line, ready);
    }

  private:
    std::vector<std::pair<LineAddr, Cycles>> v_;
};

/**
 * The shared memory system of one simulated machine.
 *
 * All methods take the logical process id and its current local time;
 * they return the latency the access contributes to that processor and
 * update contention clocks and statistics.
 */
class MemSys
{
  public:
    MemSys(const MachineConfig& cfg, const Topology& topo);

    /// A demand load/store at byte address `addr` by process `p` at local
    /// time `now`. Returns the stall latency in cycles.
    Cycles access(ProcId p, Cycles now, Addr addr, bool write,
                  ProcStats& st);

    /// A non-binding prefetch: runs the read transaction, installs the
    /// line, but the processor does not stall. Completion is recorded so a
    /// subsequent demand access pays only the remaining latency.
    void prefetch(ProcId p, Cycles now, Addr addr, ProcStats& st);

    /// Uncached at-memory fetch&op on `addr` (Section 6.3).
    Cycles fetchOp(ProcId p, Cycles now, Addr addr, ProcStats& st);

    /// An LL-SC style read-modify-write: a write access plus fixed cost.
    Cycles llscRmw(ProcId p, Cycles now, Addr addr, ProcStats& st);

    /// Round-trip network latency between two processes' nodes, without
    /// memory access; used by the synchronization cost model.
    Cycles netRoundTrip(ProcId from, ProcId to) const;

    // ---- Pure (contention-free, state-free) latency queries ----
    // Used by the synchronization layer, which models its own
    // serialization episode-exactly and must not disturb global clocks.

    /// Clean fetch latency from `home` as seen by node `me`.
    Cycles pureFetch(NodeId me, NodeId home) const;
    /// 3-hop dirty-transfer latency (owner's cache supplies the line).
    Cycles pureDirty(NodeId me, NodeId home, NodeId owner) const;
    /// Uncached at-memory fetch&op latency.
    Cycles pureFetchOp(NodeId me, NodeId home) const;
    /// Home node used for synchronization variables at `addr`.
    NodeId syncHomeOf(Addr addr) { return pageTable_.home(addr, 0); }

    /// Explicit manual placement passthrough.
    void place(Addr addr, std::uint64_t bytes, NodeId node)
    {
        pageTable_.place(addr, bytes, node);
    }
    void placeBlocked(Addr addr, std::uint64_t bytes,
                      const std::vector<NodeId>& order)
    {
        pageTable_.placeBlocked(addr, bytes, order);
    }

    const PageTable& pageTable() const { return pageTable_; }
    const Cache& cache(ProcId p) const { return *caches_[p]; }
    const Directory& directory() const { return dir_; }
    const Topology& topology() const { return topo_; }
    const MachineConfig& config() const { return cfg_; }
    /// The machine's (private, possibly mutation-corrupted) protocol
    /// transition tables.
    const Protocol& protocol() const { return proto_; }

    NodeId nodeOfProcess(ProcId p) const { return procNode_[p]; }

    /// True when processor `p` has a prefetch fill in flight for
    /// `line` (its completion has been scheduled but no demand access
    /// has absorbed it yet). The model checker folds this transient
    /// into its per-processor state.
    bool
    fillPending(ProcId p, LineAddr line) const
    {
        return pendingFill_[p].find(line) != nullptr;
    }

    /**
     * Attach (or detach with nullptr) the per-processor counter
     * vector that receiver-side fan-out accounting (invalsReceived,
     * updatesReceived) is charged to. Machine::run wires its own
     * stats in; standalone drivers (the model checker's per-step
     * accounting invariants) attach theirs. The vector must outlive
     * the accesses and have one slot per processor.
     */
    void attachStats(std::vector<ProcStats>* s) { allStats_ = s; }

    /**
     * Validate the coherence invariants between every cache and the
     * directory:
     *  - a Dirty directory entry has exactly one cached copy, Dirty,
     *    at its owner;
     *  - a Shared entry's sharers all hold the line non-Dirty, and
     *    nobody else holds it;
     *  - every valid cached line has a directory entry covering it.
     * @return empty string if consistent, else a description of the
     *         first violation (debug/testing aid; O(total cache lines)).
     */
    std::string validateCoherence() const;

    /**
     * Attach (or detach with nullptr) a commit-order observer that
     * sees every data-moving protocol action (see sim/commit.hh).
     * Attach before Machine::run(); the verification harness uses this
     * to drive its sequential-consistency data-value oracle. Costs one
     * null test per hook site when detached.
     */
    void attachCommitObserver(CommitObserver* o) { commit_ = o; }

    /**
     * Attach (or detach with nullptr) the byte-granular access stream
     * of a SyncObserver (Machine::attachSyncObserver forwards here; the
     * lock/barrier callbacks are the Machine's job). onMemOp fires at
     * the same commit points as the CommitObserver load/store hooks,
     * but skips prefetch-internal transactions, whose data the program
     * never consumes. Costs one null test per hook site when detached.
     */
    void attachSyncObserver(SyncObserver* o) { sync_ = o; }

    /**
     * A queued hardware resource (Hub, node memory, metarouter).
     *
     * `freeAt` is the FCFS completion frontier; `frontier` is the latest
     * request timestamp seen. Because the scheduler executes processors
     * in only *approximate* time order, a request can be processed after
     * a logically-later one; measuring queueing delay against
     * max(arrival, frontier) keeps such a request from being charged for
     * backlog that logically arrived after it, while still enforcing the
     * resource's service-rate (throughput) limit.
     */
    struct Resource {
        Cycles freeAt = 0;
        Cycles frontier = 0;
    };

  private:
    /// Advance a resource; returns queueing delay seen at `arrival`.
    Cycles useResource(Resource& res, Cycles arrival, Cycles occupancy);

    /// One-way network latency between nodes, charging metarouter
    /// occupancy when a metarouter is crossed.
    Cycles netLeg(NodeId from, NodeId to, Cycles arrival);

    /// Handle eviction side effects (directory update, dirty writeback).
    void handleVictim(ProcId p, Cycles now, const CacheResult& r,
                      ProcStats& st);

    /// Invalidate every directory-format target of `line` other than
    /// `requester` (and `exclude`, for an owner the 3-hop intervention
    /// already killed); returns the fan-out latency component observed
    /// by the requester. Targets that hold no copy (compressed-format
    /// over-signalling) cost traffic but move no data.
    Cycles invalidateSharers(ProcId requester, NodeId home, Cycles now,
                             LineAddr line, DirEntry& e, ProcStats& st,
                             ProcId exclude = kNoProc);

    /// Update-based fan-out: push the stored value into every
    /// directory-format target's valid copy (per the remote-write
    /// table row). Updated processors are recorded in updatedProcs_
    /// (cleared first) for the caller's commit hooks. Returns the
    /// fan-out latency like invalidateSharers.
    Cycles updateSharers(ProcId requester, NodeId home, Cycles now,
                         LineAddr line, DirEntry& e, ProcStats& st);

    /// Maintain the limited-pointer overflow bit after sharers.add().
    void
    noteSharers(DirEntry& e) const
    {
        if (cfg_.dirFormat.format == DirFormat::LimitedPtr &&
            !e.overflow && e.sharers.count() > cfg_.dirFormat.param)
            e.overflow = true;
    }

    /// Fan-out target enumeration for this machine's directory format
    /// (see forEachFanoutTarget in sim/directory.hh, which the model
    /// checker shares for its fan-out-consistency invariant).
    template <typename Fn>
    void
    forEachTarget(const DirEntry& e, Fn&& fn) const
    {
        forEachFanoutTarget(cfg_.dirFormat, e, cfg_.numProcs,
                            std::forward<Fn>(fn));
    }

    /// True when observability hooks should fire.
    bool traceOn() const { return trace_ != nullptr && !traceMuted_; }

    const MachineConfig cfg_;
    const Topology& topo_;
    PageTable pageTable_;
    Directory dir_;
    /// Per-machine copy of the protocol's transition tables, so the
    /// CheckMutation seam can corrupt a private cell (see ctor).
    Protocol proto_;
    std::vector<std::unique_ptr<Cache>> caches_;
    /// Scratch: processors refreshed by the last update fan-out, in
    /// signalling order (consumed by the commit hooks of the access
    /// that ran it).
    std::vector<ProcId> updatedProcs_;
    std::vector<ProcStats>* allStats_ = nullptr;
    obs::Trace* trace_ = nullptr;
    CommitObserver* commit_ = nullptr;
    SyncObserver* sync_ = nullptr;
    /// Suppresses obs tracing and SyncObserver hooks while prefetch()
    /// runs its inner transaction (whose loads/hits are not folded into
    /// the issuing processor; its data is never consumed).
    bool traceMuted_ = false;
    /// True while llscRmw() runs its inner write access, so the
    /// SyncObserver stream can tag it MemOp::Rmw (atomic).
    bool inRmw_ = false;

    // Contention clocks.
    std::vector<Resource> hubFree_;
    std::vector<Resource> memFree_;
    std::vector<Resource> metaFree_;

    // Pending prefetch completions: (proc, line) -> ready time.
    std::vector<PendingFills> pendingFill_;

    std::vector<NodeId> procNode_; ///< process -> node (via mapping)

    friend class Machine;
    void attachTrace(obs::Trace* t) { trace_ = t; }
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_MEMSYS_HH
