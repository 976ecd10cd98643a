#include "model/world.hh"

#include <algorithm>

namespace ccnuma::model {

namespace {

const char*
opName(OpKind k)
{
    switch (k) {
      case OpKind::Read:
        return "read";
      case OpKind::Write:
        return "write";
      case OpKind::Evict:
        return "evict";
      case OpKind::Prefetch:
        return "prefetch";
    }
    return "?";
}

} // namespace

std::string
describeStep(const Step& s)
{
    return "P" + std::to_string(s.proc) + " " + opName(s.kind);
}

sim::MachineConfig
World::makeConfig(const sim::ProtocolConfig& proto,
                  const sim::DirectoryConfig& fmt, int procs,
                  sim::CheckMutation mutation)
{
    sim::MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.procsPerNode = 1;  // one processor per node: fully symmetric
    cfg.nodesPerRouter = 1; // keep odd node counts (P=3) well-formed
    cfg.cacheAssoc = 1;
    // One line per cache: line B conflicts with line A, so every
    // reachable eviction interleaving is forced with a single address
    // pair.
    cfg.cacheBytes = cfg.lineBytes;
    cfg.protocol = proto;
    cfg.dirFormat = fmt;
    cfg.check.mutation = mutation;
    return cfg;
}

World::World(const sim::MachineConfig& cfg)
    : cfg_(cfg),
      topo_(cfg_),
      mem_(cfg_, topo_),
      stats_(static_cast<std::size_t>(cfg_.numProcs)),
      fresh_(static_cast<std::size_t>(cfg_.numProcs), false)
{
    mem_.attachCommitObserver(this);
    mem_.attachStats(&stats_);
}

bool
World::apply(const Step& s)
{
    if (!violation_.empty())
        return false;
    const GlobalState before = snapshot();
    const std::uint64_t inv_before = totalInvalsReceived();
    const std::uint64_t upd_before = totalUpdatesReceived();
    const std::uint64_t spu_before = totalSpurious();
    ++steps_;
    // Timestamps only pace the contention clocks; state transitions
    // are time-independent, so any monotone sequence serves.
    const sim::Cycles now = steps_ * 100000;
    sim::ProcStats& st = stats_[static_cast<std::size_t>(s.proc)];
    switch (s.kind) {
      case OpKind::Read:
        mem_.access(s.proc, now, kLineA, false, st);
        break;
      case OpKind::Write:
        mem_.access(s.proc, now, kLineA, true, st);
        break;
      case OpKind::Evict:
        mem_.access(s.proc, now, lineB(), false, st);
        break;
      case OpKind::Prefetch:
        mem_.prefetch(s.proc, now, kLineA, st);
        break;
    }
    // A commit hook may already have recorded a data-value breach
    // (stale hit / stale fill / stale supply); that report wins.
    if (violation_.empty())
        checkInvariants(s, before, snapshot(),
                        totalInvalsReceived() - inv_before,
                        totalUpdatesReceived() - upd_before,
                        totalSpurious() - spu_before);
    return violation_.empty();
}

std::size_t
World::replay(const std::vector<Step>& trace)
{
    std::size_t n = 0;
    for (const Step& s : trace) {
        if (!apply(s))
            return n;
        ++n;
    }
    return n;
}

std::vector<Step>
World::enabledSteps() const
{
    std::vector<Step> out;
    out.reserve(static_cast<std::size_t>(cfg_.numProcs) * 3);
    for (int p = 0; p < cfg_.numProcs; ++p) {
        const sim::ProcId pid = static_cast<sim::ProcId>(p);
        out.push_back({pid, OpKind::Read});
        out.push_back({pid, OpKind::Write});
        if (mem_.cache(pid).probe(kLineA) != sim::LineState::Invalid)
            out.push_back({pid, OpKind::Evict});
        else
            out.push_back({pid, OpKind::Prefetch});
    }
    return out;
}

GlobalState
World::snapshot() const
{
    GlobalState g;
    g.procs.resize(static_cast<std::size_t>(cfg_.numProcs));
    for (int p = 0; p < cfg_.numProcs; ++p) {
        const sim::ProcId pid = static_cast<sim::ProcId>(p);
        ProcState& ps = g.procs[static_cast<std::size_t>(p)];
        ps.cache = mem_.cache(pid).probe(kLineA);
        ps.fresh = ps.cache != sim::LineState::Invalid &&
                   fresh_[static_cast<std::size_t>(p)];
        ps.pending = mem_.fillPending(pid, kLineA);
    }
    if (const sim::DirEntry* e = mem_.directory().probe(kLineA)) {
        g.dir = e->state;
        g.owner = e->owner == sim::kNoProc ? -1 : e->owner;
        g.overflow = e->overflow;
        e->sharers.forEach(
            [&g](sim::ProcId q) { g.sharers |= 1u << q; });
    }
    g.memFresh = memFresh_;
    return g;
}

void
World::fail(const std::string& invariant, const std::string& detail)
{
    if (!violation_.empty())
        return; // first breach wins
    invariantName_ = invariant;
    violation_ = invariant + ": " + detail;
}

void
World::checkInvariants(const Step& s, const GlobalState& before,
                       const GlobalState& after,
                       std::uint64_t invalsDelta,
                       std::uint64_t updatesDelta,
                       std::uint64_t spuriousDelta)
{
    const int procs = cfg_.numProcs;
    const sim::Protocol& proto = mem_.protocol();

    // data-value: every valid copy must hold the latest committed
    // value (the symbolic last-writer property; a protocol that
    // "forgets" an invalidation or update leaves a stale copy here).
    for (int q = 0; q < procs; ++q) {
        const ProcState& ps = after.procs[static_cast<std::size_t>(q)];
        if (ps.cache != sim::LineState::Invalid && !ps.fresh) {
            fail("data-value",
                 "P" + std::to_string(q) +
                     " holds a stale valid copy after " +
                     describeStep(s) + " [" + after.describe() + "]");
            return;
        }
    }

    // coherence: the engine's own structural cache<->directory
    // invariants (single-writer/multiple-reader, sharer registration,
    // owner consistency).
    if (std::string err = mem_.validateCoherence(); !err.empty()) {
        fail("coherence", err + " after " + describeStep(s));
        return;
    }

    // memory-currency: a directory state that promises current home
    // memory (Uncached/Shared) must sit over a fresh copy in memory;
    // a modified-ownership state (Dirty/Owned) implies memory is
    // stale — MOESI's Owned-implies-stale-memory, generalized.
    const bool dir_clean = after.dir == sim::DirState::Uncached ||
                           after.dir == sim::DirState::Shared;
    if (dir_clean && !after.memFresh) {
        fail("memory-currency",
             "directory promises current memory but home memory is "
             "stale after " +
                 describeStep(s) + " [" + after.describe() + "]");
        return;
    }
    if (!dir_clean && after.memFresh) {
        fail("memory-currency",
             "modified-ownership directory state over fresh home "
             "memory after " +
                 describeStep(s) + " [" + after.describe() + "]");
        return;
    }

    // state-liveness: no cache may sit in a state the protocol's own
    // tables cannot drive a line into (e.g. Owned under MESI).
    const unsigned live = proto.reachableStates();
    for (int q = 0; q < procs; ++q) {
        const unsigned bit =
            1u << static_cast<int>(
                after.procs[static_cast<std::size_t>(q)].cache);
        if (!(live & bit)) {
            fail("state-liveness",
                 "P" + std::to_string(q) +
                     " entered a cache state outside the protocol "
                     "table's reachable set [" +
                     after.describe() + "]");
            return;
        }
    }

    // fanout-exact: the full bit vector is exact — it never signals a
    // processor without a copy, so spurious fan-out must stay zero.
    if (cfg_.dirFormat.format == sim::DirFormat::FullBitVector &&
        spuriousDelta != 0) {
        fail("fanout-exact",
             "fullbv fan-out signalled " +
                 std::to_string(spuriousDelta) +
                 " processor(s) without a copy during " +
                 describeStep(s));
        return;
    }

    // fanout-superset: whatever the format compresses away, the
    // processors it *would* signal must cover every valid copy —
    // otherwise a future invalidation/update misses a holder.
    {
        sim::DirEntry e;
        e.state = after.dir;
        e.owner = after.owner < 0
                      ? sim::kNoProc
                      : static_cast<sim::ProcId>(after.owner);
        e.overflow = after.overflow;
        for (int q = 0; q < procs; ++q)
            if (after.sharers & (1u << q))
                e.sharers.add(static_cast<sim::ProcId>(q));
        std::uint32_t targets = 0;
        forEachFanoutTarget(cfg_.dirFormat, e, procs,
                            [&targets](sim::ProcId t) {
                                targets |= 1u << t;
                            });
        for (int q = 0; q < procs; ++q) {
            const bool valid =
                after.procs[static_cast<std::size_t>(q)].cache !=
                sim::LineState::Invalid;
            if (valid && !(targets & (1u << q))) {
                fail("fanout-superset",
                     "P" + std::to_string(q) +
                         " holds a copy the directory format would "
                         "not signal [" +
                         after.describe() + "]");
                return;
            }
        }
    }

    // fanout-accounting: every destroyed remote copy was a received
    // invalidation, and (update protocols) a store refreshed exactly
    // the surviving remote copies.
    std::uint64_t destroyed = 0;
    std::uint64_t survivors = 0;
    for (int q = 0; q < procs; ++q) {
        if (q == s.proc)
            continue;
        const bool was =
            before.procs[static_cast<std::size_t>(q)].cache !=
            sim::LineState::Invalid;
        const bool is =
            after.procs[static_cast<std::size_t>(q)].cache !=
            sim::LineState::Invalid;
        if (was && !is)
            ++destroyed;
        if (was && is)
            ++survivors;
    }
    if (invalsDelta != destroyed) {
        fail("fanout-accounting",
             "invalsReceived moved by " + std::to_string(invalsDelta) +
                 " but " + std::to_string(destroyed) +
                 " remote copies died during " + describeStep(s));
        return;
    }
    const std::uint64_t expect_upd =
        s.kind == OpKind::Write && proto.updateBased ? survivors : 0;
    if (updatesDelta != expect_upd) {
        fail("fanout-accounting",
             "updatesReceived moved by " +
                 std::to_string(updatesDelta) + " but " +
                 std::to_string(expect_upd) +
                 " surviving remote copies should absorb " +
                 describeStep(s));
        return;
    }

    // no-stuck: the machine can always make progress, and every
    // in-flight fill has its consuming demand access enabled. The
    // engine's transactions are atomic, so this is a structural
    // check: it guards against a future transient model whose
    // pending states lose their successors.
    const std::vector<Step> en = enabledSteps();
    if (en.empty()) {
        fail("no-stuck", "no enabled transition after " +
                             describeStep(s));
        return;
    }
    for (int q = 0; q < procs; ++q) {
        if (!after.procs[static_cast<std::size_t>(q)].pending)
            continue;
        const Step consume{static_cast<sim::ProcId>(q), OpKind::Read};
        if (std::find(en.begin(), en.end(), consume) == en.end()) {
            fail("no-stuck",
                 "P" + std::to_string(q) +
                     " has a pending fill with no enabled consuming "
                     "access [" +
                     after.describe() + "]");
            return;
        }
    }
}

std::uint64_t
World::totalInvalsReceived() const
{
    std::uint64_t n = 0;
    for (const sim::ProcStats& st : stats_)
        n += st.c.invalsReceived;
    return n;
}

std::uint64_t
World::totalUpdatesReceived() const
{
    std::uint64_t n = 0;
    for (const sim::ProcStats& st : stats_)
        n += st.c.updatesReceived;
    return n;
}

std::uint64_t
World::totalSpurious() const
{
    std::uint64_t n = 0;
    for (const sim::ProcStats& st : stats_)
        n += st.c.invalsSpurious;
    return n;
}

// ---- CommitObserver: symbolic last-writer value tracking ----

void
World::onLoad(sim::ProcId p, sim::LineAddr line, sim::DataSource src,
              sim::ProcId supplier)
{
    if (line != kLineA)
        return;
    const std::size_t pi = static_cast<std::size_t>(p);
    switch (src) {
      case sim::DataSource::CacheHit:
        if (!fresh_[pi])
            fail("data-value", "P" + std::to_string(p) +
                                   " read a stale cached copy");
        break;
      case sim::DataSource::Memory:
        if (!memFresh_)
            fail("data-value", "P" + std::to_string(p) +
                                   " filled from stale home memory");
        fresh_[pi] = memFresh_;
        break;
      case sim::DataSource::Owner:
        if (supplier == sim::kNoProc ||
            !fresh_[static_cast<std::size_t>(supplier)])
            fail("data-value", "P" + std::to_string(p) +
                                   " was supplied a stale line by the "
                                   "owner");
        fresh_[pi] = supplier != sim::kNoProc &&
                     fresh_[static_cast<std::size_t>(supplier)];
        break;
    }
}

void
World::onStore(sim::ProcId p, sim::LineAddr line)
{
    if (line != kLineA)
        return;
    std::fill(fresh_.begin(), fresh_.end(), false);
    fresh_[static_cast<std::size_t>(p)] = true;
    memFresh_ = false;
}

void
World::onInval(sim::ProcId p, sim::LineAddr line)
{
    if (line != kLineA)
        return;
    fresh_[static_cast<std::size_t>(p)] = false;
}

void
World::onDowngrade(sim::ProcId owner, sim::LineAddr line)
{
    if (line != kLineA)
        return;
    memFresh_ = fresh_[static_cast<std::size_t>(owner)];
}

void
World::onWriteback(sim::ProcId p, sim::LineAddr line)
{
    if (line != kLineA)
        return;
    memFresh_ = fresh_[static_cast<std::size_t>(p)];
}

void
World::onEvict(sim::ProcId, sim::LineAddr)
{
    // Clean eviction: no data moved, freshness of the remaining
    // copies and memory is unchanged.
}

void
World::onShareDirty(sim::ProcId, sim::LineAddr)
{
    // Owner-forwarded sharing: the owner keeps the only up-to-date
    // copy and home memory stays as it was (stale).
}

void
World::onUpdate(sim::ProcId p, sim::LineAddr line)
{
    if (line != kLineA)
        return;
    fresh_[static_cast<std::size_t>(p)] = true;
}

} // namespace ccnuma::model
