#include "sim/memsys.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ccnuma::sim {

MemSys::MemSys(const MachineConfig& cfg, const Topology& topo)
    : cfg_(cfg),
      topo_(topo),
      pageTable_(cfg, topo.numNodes()),
      dir_(cfg.pageBytes, cfg.lineBytes),
      proto_(Protocol::get(cfg.protocol.kind)),
      hubFree_(topo.numNodes()),
      memFree_(topo.numNodes()),
      metaFree_(std::max(1, topo.numMetaRouters())),
      pendingFill_(cfg.numProcs),
      procNode_(cfg.numProcs)
{
    // Harness self-test (CheckMutation::CorruptMoesiTable): break the
    // machine's private table copy so the remote-write x Shared cell
    // forgets its invalidation. The SC oracle must catch the stale
    // copies this leaves behind. See sim/config.hh.
    if (cfg_.check.mutation == CheckMutation::CorruptMoesiTable)
        proto_.rem[kProtoWrite][static_cast<int>(LineState::Shared)] = {
            NextState::Same, RemAct::None};
    caches_.reserve(cfg.numProcs);
    for (int p = 0; p < cfg.numProcs; ++p) {
        caches_.push_back(std::make_unique<Cache>(
            cfg.cacheBytes, cfg.cacheAssoc, cfg.lineBytes, &proto_));
        procNode_[p] = topo.nodeOfProcess(p);
    }
}

Cycles
MemSys::useResource(Resource& res, Cycles arrival, Cycles occupancy)
{
    // See the Resource doc comment: queueing delay is measured against
    // the request-timestamp frontier so that a processor the scheduler
    // happens to run late is not charged for logically-later backlog.
    const Cycles eff = arrival > res.frontier ? arrival : res.frontier;
    res.frontier = eff;
    const Cycles wait = res.freeAt > eff ? res.freeAt - eff : 0;
    res.freeAt = (res.freeAt > eff ? res.freeAt : eff) + occupancy;
    return wait;
}

namespace {

/// Pure one-way network latency for a route (no contention).
Cycles
legLatency(const MachineConfig& cfg, const Route& r)
{
    if (r.hops == 0 && r.metaCrossings == 0)
        return 0; // same node: no network traversal
    return cfg.linkCycles +
           static_cast<Cycles>(r.hops) * cfg.routerCycles +
           static_cast<Cycles>(r.metaCrossings) * cfg.metaRouterCycles;
}

} // namespace

Cycles
MemSys::netLeg(NodeId from, NodeId to, Cycles arrival)
{
    const Route r = topo_.route(from, to);
    Cycles lat = legLatency(cfg_, r);
    if (r.metaCrossings > 0 && topo_.numMetaRouters() > 0)
        lat += useResource(metaFree_[r.metaRouter], arrival,
                           cfg_.metaRouterOccupancy);
    return lat;
}

Cycles
MemSys::pureFetch(NodeId me, NodeId home) const
{
    Cycles lat = 2 * cfg_.procCycles + 2 * cfg_.hubCycles +
                 cfg_.dirCycles + cfg_.memCycles;
    if (home != me) {
        lat += 2 * cfg_.hubCycles;
        lat += legLatency(cfg_, topo_.route(me, home)) +
               legLatency(cfg_, topo_.route(home, me));
    }
    return lat;
}

Cycles
MemSys::pureDirty(NodeId me, NodeId home, NodeId owner) const
{
    Cycles lat = pureFetch(me, home) + 2 * cfg_.hubCycles +
                 cfg_.protocol.interventionCycles;
    const Cycles fwd = legLatency(cfg_, topo_.route(home, owner));
    const Cycles rep = legLatency(cfg_, topo_.route(owner, me));
    const Cycles direct = legLatency(cfg_, topo_.route(home, me));
    lat += fwd > cfg_.memCycles ? fwd - cfg_.memCycles : 0;
    lat += rep > direct ? rep - direct : 0;
    return lat;
}

Cycles
MemSys::pureFetchOp(NodeId me, NodeId home) const
{
    Cycles lat = 2 * cfg_.procCycles + 2 * cfg_.hubCycles + cfg_.dirCycles;
    if (home != me) {
        lat += 2 * cfg_.hubCycles;
        lat += legLatency(cfg_, topo_.route(me, home)) +
               legLatency(cfg_, topo_.route(home, me));
    }
    return lat;
}

Cycles
MemSys::netRoundTrip(ProcId from, ProcId to) const
{
    const NodeId a = procNode_[from];
    const NodeId b = procNode_[to];
    if (a == b)
        return cfg_.hubCycles;
    const Cycles leg = legLatency(cfg_, topo_.route(a, b)) +
                       legLatency(cfg_, topo_.route(b, a));
    return leg + 2 * cfg_.hubCycles;
}

void
MemSys::handleVictim(ProcId p, Cycles now, const CacheResult& r,
                     ProcStats& st)
{
    if (r.victimState == LineState::Invalid)
        return;
    const LineAddr line = r.victim;
    DirEntry& e = dir_.lookup(line);
    if (r.victimState == LineState::Dirty) {
        // Write the line back to its home memory. The writeback is off
        // the critical path but consumes Hub and memory bandwidth at the
        // victim's home node -- the protocol-traffic contention the paper
        // blames for Radix's behaviour.
        const NodeId home = pageTable_.home(line, procNode_[p]);
        useResource(hubFree_[home], now, cfg_.hubOccupancy);
        useResource(memFree_[home], now, cfg_.memOccupancy);
        ++st.c.writebacks;
        if (traceOn())
            trace_->onWriteback(p, now, line, home);
        if (commit_)
            commit_->onWriteback(p, line);
        e.state = DirState::Uncached;
        e.owner = kNoProc;
        e.sharers.clear();
        dir_.drop(line);
    } else if (r.victimState == LineState::Owned) {
        // Owned victim (MOESI/Dragon): the only up-to-date copy leaves
        // a cache that still has clean peers. Write it back — home
        // memory is current again, so the peers' copies become plain
        // Shared and the entry loses its owner.
        // Harness self-test (CheckMutation::DropOwnedWriteback): the
        // eviction forgets the writeback, so the entry goes Shared
        // over stale home memory — a later memory fill serves old
        // data. The model checker must find this exhaustively. See
        // sim/config.hh.
        if (cfg_.check.mutation == CheckMutation::DropOwnedWriteback) {
            if (commit_)
                commit_->onEvict(p, line);
            e.sharers.remove(p);
            e.owner = kNoProc;
            if (e.sharers.empty()) {
                e.state = DirState::Uncached;
                e.overflow = false;
                dir_.drop(line);
            } else {
                e.state = DirState::Shared;
            }
            return;
        }
        const NodeId home = pageTable_.home(line, procNode_[p]);
        useResource(hubFree_[home], now, cfg_.hubOccupancy);
        useResource(memFree_[home], now, cfg_.memOccupancy);
        ++st.c.writebacks;
        if (traceOn())
            trace_->onWriteback(p, now, line, home);
        if (commit_)
            commit_->onWriteback(p, line);
        e.sharers.remove(p);
        e.owner = kNoProc;
        if (e.sharers.empty()) {
            e.state = DirState::Uncached;
            e.overflow = false;
            dir_.drop(line);
        } else {
            e.state = DirState::Shared;
        }
    } else {
        if (commit_)
            commit_->onEvict(p, line);
        e.sharers.remove(p);
        if (e.owner == p)
            e.owner = kNoProc;
        if (e.sharers.empty()) {
            e.state = DirState::Uncached;
            e.overflow = false;
            dir_.drop(line);
        }
    }
}

Cycles
MemSys::invalidateSharers(ProcId requester, NodeId home, Cycles now,
                          LineAddr line, DirEntry& e, ProcStats& st,
                          ProcId exclude)
{
    const NodeId myNode = procNode_[requester];
    int n = 0;
    Cycles worst_legs = 0;
    bool mutate_spared = false;
    // The remote-write x Shared cell governs the whole fan-out: every
    // non-owner holder is Shared. A table whose cell "forgot" the
    // invalidation (CheckMutation::CorruptMoesiTable) leaves stale
    // copies here for the SC oracle to catch.
    const RemCell cell =
        proto_.rem[kProtoWrite][static_cast<int>(LineState::Shared)];
    forEachTarget(e, [&](ProcId s) {
        if (s == requester || s == exclude)
            return;
        // Harness self-test (CheckMutation::SkipInvalidation): a
        // deliberately broken protocol that forgets to invalidate the
        // first sharer of every fan-out, leaving it a stale copy the
        // SC oracle must catch. See sim/config.hh.
        if (cfg_.check.mutation == CheckMutation::SkipInvalidation &&
            !mutate_spared) {
            mutate_spared = true;
            return;
        }
        bool real = false;
        if (cell.act == RemAct::Invalidate)
            real = caches_[s]->invalidate(line) != LineState::Invalid;
        if (real) {
            if (commit_)
                commit_->onInval(s, line);
            if (allStats_)
                ++(*allStats_)[s].c.invalsReceived;
            ++st.c.invalsSent;
            if (traceOn())
                trace_->onInval(requester, s, now, line, home);
        } else {
            // Compressed-format over-signalling (or a corrupted
            // table): the message and its ack are real traffic, but
            // no copy dies, so obs sharing stats see nothing.
            ++st.c.invalsSpurious;
        }
        ++n;
        const NodeId sn = procNode_[s];
        useResource(hubFree_[sn], now, cfg_.hubOccupancy);
        const Cycles legs = legLatency(cfg_, topo_.route(home, sn)) +
                            legLatency(cfg_, topo_.route(sn, myNode));
        worst_legs = std::max(worst_legs, legs);
    });
    if (n == 0)
        return 0;
    // Invalidations fan out from the home in parallel; the requester
    // observes the slowest ack plus a small serialization per message.
    return worst_legs + cfg_.hubCycles +
           cfg_.protocol.invalPerSharerCycles *
               static_cast<Cycles>(n - 1);
}

Cycles
MemSys::updateSharers(ProcId requester, NodeId home, Cycles now,
                      LineAddr line, DirEntry& e, ProcStats& st)
{
    const NodeId myNode = procNode_[requester];
    int n = 0;
    Cycles worst_legs = 0;
    updatedProcs_.clear();
    forEachTarget(e, [&](ProcId s) {
        if (s == requester)
            return;
        Cache& c = *caches_[s];
        const LineState hs = c.probe(line);
        if (hs != LineState::Invalid) {
            const RemCell cell =
                proto_.rem[kProtoWrite][static_cast<int>(hs)];
            if (cell.act == RemAct::Update) {
                // The copy absorbs the new value in place; an Owned
                // holder relinquishes ownership to the writer.
                if (cell.next == NextState::Shared &&
                    hs != LineState::Shared)
                    c.setState(line, LineState::Shared);
                ++st.c.updatesSent;
                if (allStats_)
                    ++(*allStats_)[s].c.updatesReceived;
                updatedProcs_.push_back(s);
            }
        } else {
            ++st.c.invalsSpurious;
        }
        ++n;
        const NodeId sn = procNode_[s];
        useResource(hubFree_[sn], now, cfg_.hubOccupancy);
        const Cycles legs = legLatency(cfg_, topo_.route(home, sn)) +
                            legLatency(cfg_, topo_.route(sn, myNode));
        worst_legs = std::max(worst_legs, legs);
    });
    if (n == 0)
        return 0;
    // Same fan-out shape as invalidations; updates carry a line of
    // data, so their per-message serialization is its own knob.
    return worst_legs + cfg_.hubCycles +
           cfg_.protocol.updatePerSharerCycles *
               static_cast<Cycles>(n - 1);
}

Cycles
MemSys::access(ProcId p, Cycles now, Addr addr, bool write, ProcStats& st)
{
    if (write)
        ++st.c.stores;
    else
        ++st.c.loads;
    if (traceOn())
        trace_->onAccess(p, now, addr, write);

    Cache& cache = *caches_[p];
    const LineAddr line =
        addr & ~static_cast<Addr>(cfg_.lineBytes - 1);
    const CacheResult res = cache.access(addr, write);

    if (res.hit && !res.upgrade) {
        Cycles lat = cfg_.l2HitCycles;
        PendingFills& pend = pendingFill_[p];
        if (!pend.empty()) {
            if (const Cycles* ready = pend.find(line)) {
                if (*ready > now)
                    lat += *ready - now;
                ++st.c.prefetchesUseful;
                if (traceOn())
                    trace_->onPrefetchUseful(p, now);
                pend.erase(line);
            }
        }
        ++st.c.l2Hits;
        if (traceOn())
            trace_->onHit(p, now);
        if (commit_) {
            if (write)
                commit_->onStore(p, line);
            else
                commit_->onLoad(p, line, DataSource::CacheHit, kNoProc);
        }
        if (sync_ && !traceMuted_)
            sync_->onMemOp(p, addr,
                           inRmw_ ? MemOp::Rmw
                                  : write ? MemOp::Store : MemOp::Load);
        return lat;
    }

    const NodeId myNode = procNode_[p];
    const NodeId home = pageTable_.home(addr, myNode);
    Cycles migration_stall = 0;
    if (pageTable_.noteAccess(addr, myNode)) {
        // Page migrated to myNode: the 16 KB copy occupies both
        // memories (one page of line transfers), and the triggering
        // access stalls for the full OS/TLB-shootdown latency.
        useResource(memFree_[home], now, cfg_.migrationCycles / 4);
        useResource(memFree_[myNode], now, cfg_.migrationCycles / 4);
        migration_stall = cfg_.migrationCycles;
        ++st.c.pageMigrations;
        if (traceOn())
            trace_->onPageMigration(p, now, addr, home, myNode);
    }

    // `lat` accumulates the elapsed transaction latency; each stage's
    // resource sees arrival time now+lat, so queueing delays compose
    // sequentially instead of being double-counted.
    Cycles lat = 0;

    if (res.hit && res.upgrade) {
        // Write hit without write permission: the store needs a
        // coherence transaction at the home — an ownership upgrade
        // under invalidation protocols, an update broadcast under
        // Dragon. The requester table demands the same action for
        // Shared and Owned in every shipped protocol, so the Shared
        // cell speaks for the whole fan-out. No victim on this path,
        // so the entry reference is safe to hold.
        const bool update = proto_.updateBased;
        DirEntry& e = dir_.lookup(line);
        ++st.c.upgrades;
        const std::uint64_t fan_before =
            st.c.invalsSent + st.c.updatesSent;
        if (!update)
            updatedProcs_.clear();
        lat = cfg_.procCycles;
        lat += useResource(hubFree_[myNode], now + lat,
                           cfg_.hubOccupancy);
        lat += cfg_.hubCycles; // traversal out
        if (home != myNode) {
            lat += netLeg(myNode, home, now + lat);
            lat += useResource(hubFree_[home], now + lat,
                               cfg_.hubOccupancy);
            lat += cfg_.hubCycles + cfg_.dirCycles;
            lat += update
                       ? updateSharers(p, home, now + lat, line, e, st)
                       : invalidateSharers(p, home, now + lat, line, e,
                                           st);
            lat += cfg_.hubCycles; // home hub out
            lat += netLeg(home, myNode, now + lat);
        } else {
            lat += cfg_.dirCycles;
            lat += update
                       ? updateSharers(p, home, now + lat, line, e, st)
                       : invalidateSharers(p, home, now + lat, line, e,
                                           st);
        }
        lat += cfg_.hubCycles + cfg_.procCycles; // own hub in, retire
        if (!update || updatedProcs_.empty()) {
            // Exclusive ownership: every other copy is gone (or none
            // existed), so the writer's line is plainly Dirty.
            e.state = DirState::Dirty;
            e.owner = p;
            e.sharers.clear();
            e.sharers.add(p);
            e.overflow = false;
            if (update)
                cache.setState(line, LineState::Dirty);
        } else {
            // Dragon with live copies: the writer becomes the Owned
            // supplier (Sm); the updated sharers keep their copies.
            e.state = DirState::Owned;
            e.owner = p;
            e.sharers.add(p);
            noteSharers(e);
            cache.setState(line, LineState::Owned);
        }
        if (traceOn())
            trace_->onUpgrade(p, now, lat, line, home,
                              static_cast<int>(st.c.invalsSent +
                                               st.c.updatesSent -
                                               fan_before));
        if (commit_) {
            commit_->onStore(p, line);
            for (const ProcId q : updatedProcs_)
                commit_->onUpdate(q, line);
        }
        if (sync_ && !traceMuted_)
            sync_->onMemOp(p, addr,
                           inRmw_ ? MemOp::Rmw : MemOp::Store);
        return lat;
    }

    // True miss: victim first, then the fill transaction. The line's
    // directory entry is looked up only after the victim's entry has
    // been updated/dropped: dropping the victim may free the block of
    // its page, which can be this line's page, so a reference obtained
    // earlier could dangle.
    handleVictim(p, now, res, st);
    pendingFill_[p].erase(line);
    DirEntry& e = dir_.lookup(line);
    obs::EventKind miss_kind = obs::EventKind::MissLocal;
    DataSource fill_src = DataSource::Memory;
    ProcId fill_supplier = kNoProc;
    updatedProcs_.clear();

    const bool dirty_elsewhere =
        (e.state == DirState::Dirty || e.state == DirState::Owned) &&
        e.owner != kNoProc && e.owner != p;

    // Request leg: processor -> own Hub (-> network -> home Hub).
    lat = cfg_.procCycles;
    lat += useResource(hubFree_[myNode], now + lat, cfg_.hubOccupancy);
    lat += cfg_.hubCycles; // own hub, outbound traversal
    if (home != myNode) {
        lat += netLeg(myNode, home, now + lat);
        lat += useResource(hubFree_[home], now + lat, cfg_.hubOccupancy);
        lat += cfg_.hubCycles; // home hub, inbound traversal
    }
    // Home: directory lookup + (possibly speculative) memory read.
    lat += cfg_.dirCycles;
    lat += useResource(memFree_[home], now + lat, cfg_.memOccupancy);
    lat += cfg_.memCycles;

    if (dirty_elsewhere) {
        // 3-hop: the home forwards to the owner concurrently with its
        // speculative memory read; the owner replies directly to the
        // requester. The requester pays the intervention plus however
        // much the forward leg exceeds the overlapped memory access and
        // the reply leg exceeds the direct home->requester leg.
        const ProcId owner = e.owner;
        const NodeId on = procNode_[owner];
        const int oidx =
            static_cast<int>(e.state == DirState::Owned
                                 ? LineState::Owned
                                 : LineState::Dirty);
        lat += useResource(hubFree_[on], now + lat, cfg_.hubOccupancy);
        lat += 2 * cfg_.hubCycles + cfg_.protocol.interventionCycles;
        const Cycles fwd = legLatency(cfg_, topo_.route(home, on));
        const Cycles rep = legLatency(cfg_, topo_.route(on, myNode));
        const Cycles direct = legLatency(cfg_, topo_.route(home, myNode));
        lat += fwd > cfg_.memCycles ? fwd - cfg_.memCycles : 0;
        lat += rep > direct ? rep - direct : 0;
        ++st.c.missRemoteDirty;
        miss_kind = obs::EventKind::MissRemoteDirty;
        fill_src = DataSource::Owner;
        fill_supplier = owner;
        if (write) {
            const RemCell ocell = proto_.rem[kProtoWrite][oidx];
            if (ocell.act != RemAct::Update) {
                // Invalidation protocols: the intervention transfers
                // ownership and the old owner's copy dies with it. A
                // MOESI Owned entry also has clean peers to kill.
                caches_[owner]->invalidate(line);
                if (commit_)
                    commit_->onInval(owner, line);
                if (allStats_)
                    ++(*allStats_)[owner].c.invalsReceived;
                if (e.state == DirState::Owned)
                    lat += invalidateSharers(p, home, now + lat, line,
                                             e, st, owner);
                e.state = DirState::Dirty;
                e.owner = p;
                e.sharers.clear();
                e.sharers.add(p);
                e.overflow = false;
            } else {
                // Dragon: the owner supplies the line, then every
                // copy (the owner's included) absorbs the new value;
                // the writer takes over as the Owned supplier.
                lat += updateSharers(p, home, now + lat, line, e, st);
                e.owner = p;
                e.sharers.add(p);
                noteSharers(e);
                if (updatedProcs_.empty()) {
                    e.state = DirState::Dirty;
                } else {
                    e.state = DirState::Owned;
                    cache.setState(line, LineState::Owned);
                }
            }
        } else {
            const RemCell ocell = proto_.rem[kProtoRead][oidx];
            if (ocell.act == RemAct::SupplyWriteback) {
                // MESI: the owner downgrades and its dirty data is
                // written back to home memory.
                caches_[owner]->downgrade(line);
                useResource(memFree_[home], now, cfg_.memOccupancy);
                if (commit_)
                    commit_->onDowngrade(owner, line);
                e.state = DirState::Shared;
                e.owner = kNoProc;
                e.sharers.add(p);
                noteSharers(e);
            } else {
                // MOESI/Dragon: the owner keeps its dirty data
                // (Dirty -> Owned) and stays responsible for
                // supplying it; home memory remains stale.
                if (ocell.next == NextState::Owned)
                    caches_[owner]->setState(line, LineState::Owned);
                if (commit_)
                    commit_->onShareDirty(owner, line);
                e.state = DirState::Owned;
                e.sharers.add(owner);
                e.sharers.add(p);
                noteSharers(e);
            }
        }
    } else {
        if (home == myNode) {
            ++st.c.missLocal;
            miss_kind = obs::EventKind::MissLocal;
        } else {
            ++st.c.missRemoteClean;
            miss_kind = obs::EventKind::MissRemoteClean;
        }
        if (write) {
            if (!proto_.updateBased) {
                lat += invalidateSharers(p, home, now + lat, line, e,
                                         st);
                e.state = DirState::Dirty;
                e.owner = p;
                e.sharers.clear();
                e.sharers.add(p);
                e.overflow = false;
            } else {
                lat += updateSharers(p, home, now + lat, line, e, st);
                e.owner = p;
                e.sharers.add(p);
                noteSharers(e);
                if (updatedProcs_.empty()) {
                    e.state = DirState::Dirty;
                } else {
                    e.state = DirState::Owned;
                    cache.setState(line, LineState::Owned);
                }
            }
        } else {
            if (e.state == DirState::Dirty && e.owner == p) {
                // Stale directory (should not happen); repair.
                e.state = DirState::Shared;
                e.owner = kNoProc;
            }
            e.state = e.state == DirState::Uncached ? DirState::Shared
                                                    : e.state;
            e.sharers.add(p);
            noteSharers(e);
        }
    }
    // Reply leg: (home hub out -> network ->) own Hub in -> processor.
    if (home != myNode) {
        lat += cfg_.hubCycles;
        lat += netLeg(home, myNode, now + lat);
    }
    lat += cfg_.hubCycles + cfg_.procCycles;
    if (traceOn())
        trace_->onMiss(p, now, lat + migration_stall, line, home,
                       miss_kind, write);
    if (commit_) {
        if (write) {
            commit_->onStore(p, line);
            for (const ProcId q : updatedProcs_)
                commit_->onUpdate(q, line);
        } else {
            commit_->onLoad(p, line, fill_src, fill_supplier);
        }
    }
    if (sync_ && !traceMuted_)
        sync_->onMemOp(p, addr,
                       inRmw_ ? MemOp::Rmw
                              : write ? MemOp::Store : MemOp::Load);
    return lat + migration_stall;
}

void
MemSys::prefetch(ProcId p, Cycles now, Addr addr, ProcStats& st)
{
    Cache& cache = *caches_[p];
    if (cache.probe(addr) != LineState::Invalid)
        return; // already resident
    const LineAddr line =
        addr & ~static_cast<Addr>(cfg_.lineBytes - 1);
    // Run the read transaction; loads/l2Hits counters are not disturbed.
    // Tracing is muted around it: only the counters folded below exist
    // from the issuing processor's point of view, and the single
    // Prefetch event stands in for the whole transaction.
    ProcStats scratch;
    const bool was_muted = traceMuted_;
    traceMuted_ = true;
    const Cycles lat = access(p, now, addr, false, scratch);
    traceMuted_ = was_muted;
    st.c.missLocal += scratch.c.missLocal;
    st.c.missRemoteClean += scratch.c.missRemoteClean;
    st.c.missRemoteDirty += scratch.c.missRemoteDirty;
    st.c.writebacks += scratch.c.writebacks;
    st.c.pageMigrations += scratch.c.pageMigrations;
    ++st.c.prefetchesIssued;
    if (traceOn())
        trace_->onPrefetchIssue(p, now, line,
                                pageTable_.home(line, procNode_[p]),
                                scratch.c);
    pendingFill_[p].set(line, now + lat);
}

Cycles
MemSys::fetchOp(ProcId p, Cycles now, Addr addr, ProcStats& st)
{
    // Served at the home Hub's at-memory ALU; never cached.
    (void)st;
    const NodeId myNode = procNode_[p];
    const NodeId home = pageTable_.home(addr, myNode);
    Cycles lat = cfg_.procCycles;
    lat += useResource(hubFree_[myNode], now + lat, cfg_.hubOccupancy);
    lat += cfg_.hubCycles;
    if (home != myNode) {
        lat += netLeg(myNode, home, now + lat);
        lat += useResource(hubFree_[home], now + lat, cfg_.hubOccupancy);
        lat += cfg_.hubCycles + cfg_.dirCycles;
        lat += cfg_.hubCycles;
        lat += netLeg(home, myNode, now + lat);
    } else {
        lat += cfg_.dirCycles;
    }
    lat += cfg_.hubCycles + cfg_.procCycles;
    if (traceOn())
        trace_->onFetchOp(p, now, lat, addr, home);
    return lat;
}

Cycles
MemSys::llscRmw(ProcId p, Cycles now, Addr addr, ProcStats& st)
{
    // LL + compute + SC: a write access (exclusive ownership) plus a few
    // cycles; failed-SC retry storms are modelled by the callers'
    // contention on the lock line itself.
    inRmw_ = true;
    const Cycles lat = access(p, now, addr, true, st) + 4;
    inRmw_ = false;
    return lat;
}


std::string
MemSys::validateCoherence() const
{
    std::ostringstream err;
    // Pass 1: every cached line is covered by a directory entry whose
    // state matches.
    for (int p = 0; p < cfg_.numProcs && err.str().empty(); ++p) {
        caches_[p]->forEachLine([&](Addr line, LineState st) {
            if (!err.str().empty())
                return;
            const DirEntry* e = dir_.probe(line);
            if (!e || e->state == DirState::Uncached) {
                err << "proc " << p << " caches line 0x" << std::hex
                    << line << std::dec << " with no directory entry";
                return;
            }
            if (st == LineState::Dirty) {
                if (e->state != DirState::Dirty || e->owner != p)
                    err << "proc " << p << " holds 0x" << std::hex
                        << line << std::dec
                        << " Dirty but directory disagrees";
            } else if (st == LineState::Owned) {
                if (e->state != DirState::Owned || e->owner != p ||
                    !e->sharers.contains(p))
                    err << "proc " << p << " holds 0x" << std::hex
                        << line << std::dec
                        << " Owned but directory disagrees";
            } else if (!e->sharers.contains(p)) {
                err << "proc " << p << " holds 0x" << std::hex << line
                    << std::dec << " but is not a registered sharer";
            }
        });
    }
    if (!err.str().empty())
        return err.str();
    // Pass 2: directory entries match the caches.
    dir_.forEach([&](LineAddr line, const DirEntry& e) {
        if (!err.str().empty())
            return;
        if (e.state == DirState::Dirty) {
            if (e.owner == kNoProc) {
                err << "Dirty entry 0x" << std::hex << line << std::dec
                    << " without owner";
                return;
            }
            if (caches_[e.owner]->probe(line) != LineState::Dirty)
                err << "directory says proc " << e.owner << " owns 0x"
                    << std::hex << line << std::dec
                    << " Dirty, cache disagrees";
            int holders = 0;
            for (int p = 0; p < cfg_.numProcs; ++p)
                if (caches_[p]->probe(line) != LineState::Invalid)
                    ++holders;
            if (holders != 1)
                err << "Dirty line 0x" << std::hex << line << std::dec
                    << " has " << holders << " cached copies";
        } else if (e.state == DirState::Shared) {
            e.sharers.forEach([&](ProcId s) {
                if (caches_[s]->probe(line) == LineState::Invalid)
                    err << "registered sharer " << s
                        << " does not cache 0x" << std::hex << line
                        << std::dec;
                else if (caches_[s]->probe(line) != LineState::Shared)
                    err << "sharer " << s << " holds 0x" << std::hex
                        << line << std::dec
                        << " Dirty/Owned on Shared entry";
            });
        } else if (e.state == DirState::Owned) {
            if (e.owner == kNoProc || !e.sharers.contains(e.owner)) {
                err << "Owned entry 0x" << std::hex << line << std::dec
                    << " without registered owner";
                return;
            }
            e.sharers.forEach([&](ProcId s) {
                const LineState cs = caches_[s]->probe(line);
                const LineState want = s == e.owner ? LineState::Owned
                                                    : LineState::Shared;
                if (cs != want)
                    err << "Owned entry 0x" << std::hex << line
                        << std::dec << ": proc " << s
                        << " state disagrees with directory";
            });
            int holders = 0;
            for (int p = 0; p < cfg_.numProcs; ++p)
                if (caches_[p]->probe(line) != LineState::Invalid)
                    ++holders;
            if (holders != e.sharers.count())
                err << "Owned line 0x" << std::hex << line << std::dec
                    << " holder count disagrees with sharer set";
        }
    });
    return err.str();
}

} // namespace ccnuma::sim
