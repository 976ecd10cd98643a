#include "sim/machine.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace ccnuma::sim {

/// `cfg`, checked before the topology and caches are built from it.
static MachineConfig
validated(MachineConfig cfg)
{
    if (const std::string err = cfg.validate(); !err.empty())
        throw std::invalid_argument("bad MachineConfig: " + err);
    return cfg;
}

Machine::Machine(const MachineConfig& cfg)
    : cfg_(validated(cfg)), topo_(cfg_), mem_(cfg_, topo_)
{
    sched_.setQuantum(cfg_.quantum);
}

void
Machine::place(Addr addr, std::uint64_t bytes, NodeId node)
{
    if (node < 0 || node >= cfg_.numNodes())
        throw std::invalid_argument(
            "Machine::place: node " + std::to_string(node) +
            " outside [0, " + std::to_string(cfg_.numNodes()) + ")");
    if (rec_)
        rec_->onPlace(addr, bytes, node);
    mem_.place(addr, bytes, node);
}

Addr
Machine::alloc(std::uint64_t bytes)
{
    const Addr a = nextAddr_;
    const std::uint64_t page = cfg_.pageBytes;
    const std::uint64_t pages = bytes / page + (bytes % page != 0);
    // Every heap address must fit the caches' tag range, so the heap
    // ends at most one past its top; the cap keeps `top + 1` from
    // wrapping when the range covers the whole address space.
    const Addr top = std::min(mem_.cache(0).maxAddr(),
                              std::numeric_limits<Addr>::max() - 1);
    if (pages > (top + 1 - a) / page)
        throw std::overflow_error(
            "Machine::alloc: " + std::to_string(bytes) +
            " bytes overflow the simulated address space");
    if (rec_ && !recMuted_)
        rec_->onAlloc(bytes);
    nextAddr_ += pages * page;
    return a;
}

Addr
Machine::allocLine()
{
    // Sync lines get a page each so placement of one does not drag others
    // along; pages are cheap in a simulated address space.
    return alloc(cfg_.lineBytes);
}

void
Machine::placeAcrossProcs(Addr addr, std::uint64_t bytes)
{
    if (rec_)
        rec_->onPlaceAcross(addr, bytes);
    std::vector<NodeId> order(cfg_.numProcs);
    for (int p = 0; p < cfg_.numProcs; ++p)
        order[p] = topo_.nodeOfProcess(p);
    mem_.placeBlocked(addr, bytes, order);
}

BarrierId
Machine::barrierCreate(int participants)
{
    BarrierState bs;
    bs.participants = participants < 0 ? cfg_.numProcs : participants;
    if (rec_)
        rec_->onBarrierCreate(bs.participants);
    recMuted_ = true;
    bs.line = allocLine();
    recMuted_ = false;
    barriers_.push_back(bs);
    return BarrierId{static_cast<int>(barriers_.size()) - 1};
}

LockId
Machine::lockCreate()
{
    if (rec_)
        rec_->onLockCreate();
    recMuted_ = true;
    LockState ls;
    ls.line = allocLine();
    recMuted_ = false;
    locks_.push_back(ls);
    return LockId{static_cast<int>(locks_.size()) - 1};
}

RunResult
Machine::run(const Program& program)
{
    if (ran_)
        throw std::logic_error(
            "Machine::run: a Machine runs one program; construct a "
            "fresh Machine per run (scheduler and protocol state are "
            "not reset)");
    ran_ = true;

    stats_.assign(cfg_.numProcs, ProcStats{});
    mem_.attachStats(&stats_);
    if (cfg_.trace.any()) {
        std::vector<NodeId> proc_node(cfg_.numProcs);
        for (int p = 0; p < cfg_.numProcs; ++p)
            proc_node[p] = mem_.nodeOfProcess(p);
        trace_ = std::make_shared<obs::Trace>(
            cfg_.trace, cfg_.numProcs, cfg_.lineBytes, cfg_.pageBytes,
            cfg_.nsPerCycle(), std::move(proc_node));
        mem_.attachTrace(trace_.get());
    }
    cpus_.reserve(cfg_.numProcs);
    for (int p = 0; p < cfg_.numProcs; ++p) {
        cpus_.emplace_back(*this, mem_, sched_, stats_[p], p,
                           cfg_.numProcs);
        cpus_.back().attachTrace(trace_.get());
        cpus_.back().attachRecorder(rec_);
    }
    sched_.attach(&cpus_);

    tasks_.reserve(cfg_.numProcs);
    for (int p = 0; p < cfg_.numProcs; ++p) {
        tasks_.push_back(program(cpus_[p]));
        sched_.spawn(p, tasks_[p].handle());
    }
    sched_.run();
    for (const Task& t : tasks_)
        t.rethrowIfFailed();

    RunResult r;
    r.procs = stats_;
    for (const Cpu& c : cpus_)
        r.time = std::max(r.time, c.now());
    r.pageMigrations = mem_.pageTable().totalMigrations();
    r.trace = trace_;
    return r;
}

Cycles
Machine::syncRmwCost(Cpu& cpu, Addr line, ProcId& last_holder)
{
    // Pure-latency cost model: synchronization variables do not disturb
    // the global cache/directory/contention state. Serialization among
    // contenders is modelled episode-exactly by the callers, which makes
    // the accounting robust to the scheduler's bounded time disorder.
    const NodeId me = mem_.nodeOfProcess(cpu.id());
    const NodeId home = mem_.syncHomeOf(line);
    Cycles c;
    if (cfg_.syncKind == SyncKind::FetchOp) {
        c = mem_.pureFetchOp(me, home);
    } else if (last_holder == cpu.id()) {
        c = cfg_.l2HitCycles + 4; // line still in our cache
    } else if (last_holder == kNoProc) {
        c = mem_.pureFetch(me, home) + 4;
    } else {
        // The line bounces dirty from the previous LL-SC holder.
        c = mem_.pureDirty(me, home, mem_.nodeOfProcess(last_holder)) + 4;
    }
    if (cfg_.syncKind == SyncKind::LLSC)
        last_holder = cpu.id();
    return c;
}

bool
Machine::barrierArrive(BarrierId b, Cpu& cpu)
{
    BarrierState& bs = barriers_.at(b.idx);
    const int rounds =
        std::bit_width(static_cast<unsigned>(
            bs.participants > 1 ? bs.participants - 1 : 0));

    // Arrival cost.
    Cycles op = 0;
    if (cfg_.barrierAlg == BarrierAlg::Centralized || rounds == 0) {
        op = syncRmwCost(cpu, bs.line, bs.lastHolder);
    } else {
        // Tournament: one exchange with a partner per round; traffic is
        // spread over distinct lines, so no single line bounces.
        for (int rd = 0; rd < rounds; ++rd) {
            const ProcId partner =
                (cpu.id() ^ (1 << rd)) % cfg_.numProcs;
            op += mem_.netRoundTrip(cpu.id(), partner) / 2 +
                  cfg_.l2HitCycles;
        }
    }
    cpu.chargeSyncOp(op);
    if (syncObs_)
        syncObs_->onBarrierArrive(cpu.id(), b.idx, bs.episode);

    bs.arrivals.emplace_back(cpu.now(), cpu.id());
    if (static_cast<int>(bs.arrivals.size()) < bs.participants)
        return false; // block; the last arriver wakes us

    // Last arriver: compute the episode's serialization and release.
    // Arrivals are chained through the barrier's central resource in
    // *simulated time* order (sorting makes this exact even though the
    // scheduler executed them in a slightly different order).
    std::sort(bs.arrivals.begin(), bs.arrivals.end());
    const Cycles occ =
        cfg_.barrierAlg == BarrierAlg::Centralized
            ? (cfg_.syncKind == SyncKind::FetchOp
                   ? cfg_.hubOccupancy
                   : 2 * cfg_.hubOccupancy +
                         cfg_.protocol.interventionCycles)
            : 2; // tournament joins are spread across the tree
    Cycles end = 0;
    for (const auto& [t, p] : bs.arrivals)
        end = std::max(end, t) + occ;
    const Cycles release = end + cfg_.hubCycles;

    for (const auto& [t, p] : bs.arrivals) {
        (void)t;
        Cycles wake = release + mem_.netRoundTrip(cpu.id(), p) / 2;
        if (cfg_.barrierAlg == BarrierAlg::Tournament)
            wake += 4u * rounds; // staged wake-up through the tree
        Cpu& w = cpus_[p];
        ++w.stats().c.barriersPassed;
        if (p == cpu.id()) {
            if (wake > w.now())
                w.chargeSyncWait(wake - w.now(),
                                 Cpu::WaitKind::Barrier);
        } else {
            w.wakeAt(wake, Cpu::WaitKind::Barrier);
            sched_.ready(p, w.now());
        }
        if (trace_)
            trace_->onBarrierPassed(p, w.now(), bs.line);
        if (syncObs_)
            syncObs_->onBarrierDepart(p, b.idx, bs.episode);
    }
    bs.arrivals.clear();
    ++bs.episode;
    return true;
}

bool
Machine::lockAcquire(LockId l, Cpu& cpu)
{
    LockState& ls = locks_.at(l.idx);
    const Cycles op = syncRmwCost(cpu, ls.line, ls.lastHolder);
    cpu.chargeSyncOp(op);
    ++cpu.stats().c.lockAcquires;
    if (ls.held)
        ++cpu.stats().c.lockContended;
    if (trace_)
        trace_->onLockAcquire(cpu.id(), cpu.now(), ls.line,
                              mem_.syncHomeOf(ls.line), ls.held);
    // Harness self-test (CheckMutation::DropLockAcquire): the acquire
    // is charged and reported granted, but the lock is never taken —
    // no mutual exclusion, no SyncObserver grant, no happens-before
    // edge. The race analyzer must catch the resulting races. See
    // sim/config.hh.
    if (cfg_.check.mutation == CheckMutation::DropLockAcquire)
        return true;
    if (!ls.held) {
        ls.held = true;
        ls.owner = cpu.id();
        if (syncObs_)
            syncObs_->onLockAcquired(cpu.id(), l.idx);
        return true;
    }
    ls.waiters.emplace_back(cpu.id(), cpu.now());
    return false;
}

void
Machine::lockRelease(LockId l, Cpu& cpu)
{
    LockState& ls = locks_.at(l.idx);
    // The matching acquire was dropped (CheckMutation::DropLockAcquire):
    // charge the releasing store but leave the never-taken lock alone.
    if (cfg_.check.mutation == CheckMutation::DropLockAcquire) {
        cpu.chargeSyncOp(syncRmwCost(cpu, ls.line, ls.lastHolder));
        return;
    }
    assert(ls.held && ls.owner == cpu.id());
    // Releasing store on the lock line.
    const Cycles op = syncRmwCost(cpu, ls.line, ls.lastHolder);
    cpu.chargeSyncOp(op);
    if (syncObs_)
        syncObs_->onLockReleased(cpu.id(), l.idx);
    if (ls.waiters.empty()) {
        ls.held = false;
        ls.owner = kNoProc;
        return;
    }
    // Ticket handoff to the FIFO head. The waiter pays the line transfer
    // from the releaser before it proceeds.
    const auto [next, blockTime] = ls.waiters.front();
    (void)blockTime;
    ls.waiters.erase(ls.waiters.begin());
    ls.owner = next;
    Cpu& w = cpus_[next];
    const Cycles wake = std::max(cpu.now(), w.now()) +
                        mem_.netRoundTrip(cpu.id(), next) / 2 +
                        cfg_.hubCycles;
    w.wakeAt(wake, Cpu::WaitKind::Lock);
    if (cfg_.syncKind == SyncKind::LLSC)
        ls.lastHolder = next;
    // The handoff is the release->acquire synchronization edge: the
    // waiter's grant is delivered after this release's callback.
    if (syncObs_)
        syncObs_->onLockAcquired(next, l.idx);
    sched_.ready(next, w.now());
}

} // namespace ccnuma::sim
