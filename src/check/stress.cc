#include "check/stress.hh"

#include <algorithm>
#include <exception>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/oracle.hh"
#include "sim/machine.hh"
#include "sim/rng.hh"

namespace ccnuma::check {

namespace {

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
    }
    return h;
}

const char*
kindName(OpKind k)
{
    switch (k) {
    case OpKind::Read: return "read";
    case OpKind::Write: return "write";
    case OpKind::Rmw: return "rmw";
    case OpKind::Prefetch: return "prefetch";
    case OpKind::Busy: return "busy";
    case OpKind::LockAcq: return "lock-acq";
    case OpKind::LockRel: return "lock-rel";
    case OpKind::Barrier: return "barrier";
    }
    return "?";
}

const char*
regionName(Region r)
{
    switch (r) {
    case Region::Shared: return "shared";
    case Region::FalseShared: return "false-shared";
    case Region::Private: return "private";
    }
    return "?";
}

bool
isMemOp(OpKind k)
{
    return k == OpKind::Read || k == OpKind::Write || k == OpKind::Rmw ||
           k == OpKind::Prefetch;
}

} // namespace

std::uint64_t
StressProgram::numOps() const
{
    std::uint64_t n = 0;
    for (const auto& t : ops)
        n += t.size();
    return n;
}

sim::MachineConfig
StressOptions::defaultMachine()
{
    // A deliberately hostile machine: a tiny 4 KB L2 (32 lines) so the
    // footprints thrash through evictions and writebacks, and small
    // round-robin pages so lines spread across home nodes and remote
    // 2-hop/3-hop transactions dominate.
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(8);
    cfg.cacheBytes = 4096;
    cfg.cacheAssoc = 2;
    cfg.pageBytes = 1024;
    cfg.placement = sim::Placement::RoundRobin;
    return cfg;
}

StressProgram
generate(const StressOptions& opt)
{
    StressProgram prog;
    const int procs = opt.procs;
    const int perProc = std::max(0, opt.opsPerProc);
    const int barriers = std::max(0, opt.barriers);
    prog.ops.resize(static_cast<std::size_t>(procs));
    prog.numLocks = std::max(1, opt.numLocks);

    // Barrier instances get groups 1..barriers (one id per instance,
    // shared by every processor); lock sections draw per-processor
    // disjoint group ids above them so a shrink unit never straddles
    // two different synchronization constructs.
    const std::uint64_t lockGroupBase =
        static_cast<std::uint64_t>(barriers) + 1;

    for (int p = 0; p < procs; ++p) {
        auto& trace = prog.ops[static_cast<std::size_t>(p)];
        sim::Rng rng(opt.seed ^
                     (0xA24BAED4963EE407ull *
                      (static_cast<std::uint64_t>(p) + 1)));
        std::uint64_t nextLockGroup =
            lockGroupBase + static_cast<std::uint64_t>(p) * 1000000;

        // `heldLock` is the lock section the op sits in (-1 outside).
        // Disciplined mode uses it to keep truly-shared lines inside
        // their owning lock's sections only (see StressOptions).
        auto memOp = [&](std::uint64_t group, int heldLock) {
            Op op;
            const int sharedLines = std::max(1, opt.sharedLines);
            const double k = rng.uniform();
            if (k < opt.rmwFrac)
                op.kind = OpKind::Rmw;
            else if (k < opt.rmwFrac + opt.prefetchFrac)
                op.kind = OpKind::Prefetch;
            else if (k < opt.rmwFrac + opt.prefetchFrac + opt.writeFrac)
                op.kind = OpKind::Write;
            else
                op.kind = OpKind::Read;
            const double r = rng.uniform();
            // In disciplined mode shared lines are eligible only inside
            // a lock section whose lock owns at least one line.
            const bool sharedOk =
                !opt.disciplined ||
                (heldLock >= 0 && heldLock < sharedLines);
            if (r < opt.sharedFrac && sharedOk) {
                op.region = Region::Shared;
                if (opt.disciplined) {
                    // A line of the held lock's partition:
                    // slot ≡ heldLock (mod numLocks), slot < sharedLines.
                    const auto stride =
                        static_cast<std::uint32_t>(prog.numLocks);
                    const std::uint32_t count =
                        (static_cast<std::uint32_t>(sharedLines) - 1u -
                         static_cast<std::uint32_t>(heldLock)) /
                            stride +
                        1u;
                    op.slot = static_cast<std::uint32_t>(heldLock) +
                              stride * static_cast<std::uint32_t>(
                                           rng.range(count));
                } else {
                    op.slot = static_cast<std::uint32_t>(
                        rng.range(sharedLines));
                }
            } else if (r < opt.sharedFrac + opt.falseSharedFrac) {
                // (An ineligible shared roll lands here too: r <
                // sharedFrac implies this bound.)
                op.region = Region::FalseShared;
                op.slot = static_cast<std::uint32_t>(
                    rng.range(std::max(1, opt.falseSharedLines)));
            } else {
                op.region = Region::Private;
                op.slot = static_cast<std::uint32_t>(
                    rng.range(std::max(1, opt.privateLines)));
            }
            op.group = group;
            trace.push_back(op);
        };

        // Plain ops split into (barriers+1) segments with one barrier
        // instance between consecutive segments — every processor sees
        // the same barrier groups in the same order, and lock sections
        // never span a barrier.
        const int segments = barriers + 1;
        for (int seg = 0; seg < segments; ++seg) {
            const int lo = perProc * seg / segments;
            const int hi = perProc * (seg + 1) / segments;
            for (int i = lo; i < hi; ++i) {
                if (rng.uniform() < opt.busyFrac) {
                    trace.push_back(
                        Op{OpKind::Busy, Region::Shared,
                           static_cast<std::uint32_t>(1 + rng.range(64)),
                           0});
                    continue;
                }
                if (rng.uniform() < opt.lockFrac) {
                    const std::uint64_t g = nextLockGroup++;
                    const auto lock = static_cast<std::uint32_t>(
                        rng.range(static_cast<std::uint64_t>(
                            prog.numLocks)));
                    trace.push_back(
                        Op{OpKind::LockAcq, Region::Shared, lock, g});
                    const int body =
                        1 + static_cast<int>(rng.range(3));
                    for (int b = 0; b < body; ++b)
                        memOp(g, static_cast<int>(lock));
                    trace.push_back(
                        Op{OpKind::LockRel, Region::Shared, lock, g});
                    continue;
                }
                memOp(0, -1);
            }
            if (seg + 1 < segments)
                trace.push_back(
                    Op{OpKind::Barrier, Region::Shared, 0,
                       static_cast<std::uint64_t>(seg) + 1});
        }
    }
    return prog;
}

StressReport
execute(const StressProgram& prog, const StressOptions& opt,
        sim::SyncObserver* syncObs)
{
    StressReport rep;
    rep.seed = opt.seed;
    rep.opsExecuted = prog.numOps();

    sim::MachineConfig cfg = opt.machine;
    cfg.numProcs = prog.procs();
    cfg.check.validateEvery = opt.validateEvery;
    cfg.check.mutation = opt.mutation;

    const int procs = cfg.numProcs;
    const int sharedLines = std::max(1, opt.sharedLines);
    const int fsLines = std::max(1, opt.falseSharedLines);
    const int privLines = std::max(1, opt.privateLines);
    const int numLocks = std::max(1, prog.numLocks);

    try {
        sim::Machine m(cfg);
        const std::uint32_t lineBytes = cfg.lineBytes;
        const sim::Addr sharedBase =
            m.alloc(static_cast<std::uint64_t>(sharedLines) * lineBytes);
        const sim::Addr fsBase =
            m.alloc(static_cast<std::uint64_t>(fsLines) * lineBytes);
        std::vector<sim::Addr> privBase(
            static_cast<std::size_t>(procs));
        for (int p = 0; p < procs; ++p)
            privBase[static_cast<std::size_t>(p)] = m.alloc(
                static_cast<std::uint64_t>(privLines) * lineBytes);

        std::vector<sim::LockId> locks;
        locks.reserve(static_cast<std::size_t>(numLocks));
        for (int l = 0; l < numLocks; ++l)
            locks.push_back(m.lockCreate());
        const sim::BarrierId bar = m.barrierCreate();

        ScOracle oracle(m.mem());
        m.mem().attachCommitObserver(&oracle);
        if (syncObs)
            m.attachSyncObserver(syncObs);

        auto addrOf = [&](int p, const Op& op) -> sim::Addr {
            switch (op.region) {
            case Region::Shared:
                return sharedBase +
                       static_cast<sim::Addr>(op.slot % sharedLines) *
                           lineBytes;
            case Region::FalseShared:
                // Same lines for everyone, but each processor touches
                // its own 8-byte word within the line.
                return fsBase +
                       static_cast<sim::Addr>(op.slot % fsLines) *
                           lineBytes +
                       (static_cast<sim::Addr>(p) * 8) % lineBytes;
            case Region::Private:
                return privBase[static_cast<std::size_t>(p)] +
                       static_cast<sim::Addr>(op.slot % privLines) *
                           lineBytes;
            }
            return sharedBase;
        };

        const sim::RunResult r =
            m.run([&](sim::Cpu& cpu) -> sim::Task {
                const auto& trace =
                    prog.ops[static_cast<std::size_t>(cpu.id())];
                // Locks this processor currently holds: guards against
                // a malformed (hand-shrunk) trace deadlocking on a
                // double acquire or releasing a lock it never took.
                std::unordered_set<int> held;
                int sinceYield = 0;
                for (const Op& op : trace) {
                    switch (op.kind) {
                    case OpKind::Read:
                        cpu.read(addrOf(cpu.id(), op));
                        break;
                    case OpKind::Write:
                        cpu.write(addrOf(cpu.id(), op));
                        break;
                    case OpKind::Rmw:
                        cpu.rmw(addrOf(cpu.id(), op));
                        break;
                    case OpKind::Prefetch:
                        cpu.prefetch(addrOf(cpu.id(), op));
                        break;
                    case OpKind::Busy:
                        cpu.busy(op.slot);
                        break;
                    case OpKind::LockAcq: {
                        const int l =
                            static_cast<int>(op.slot) % numLocks;
                        if (held.insert(l).second)
                            co_await cpu.acquire(
                                locks[static_cast<std::size_t>(l)]);
                        break;
                    }
                    case OpKind::LockRel: {
                        const int l =
                            static_cast<int>(op.slot) % numLocks;
                        if (held.erase(l))
                            cpu.release(
                                locks[static_cast<std::size_t>(l)]);
                        break;
                    }
                    case OpKind::Barrier:
                        co_await cpu.barrier(bar);
                        break;
                    }
                    if (++sinceYield >= 4) {
                        sinceYield = 0;
                        co_await cpu.checkpoint();
                    }
                }
                for (int l : held)
                    cpu.release(locks[static_cast<std::size_t>(l)]);
                co_return;
            });

        rep.finalTime = r.time;
        rep.commits = oracle.commits();
        rep.loadsChecked = oracle.loadsChecked();
        rep.validations = oracle.validations();

        if (oracle.failed()) {
            rep.failed = true;
            rep.message = oracle.violations().front().what;
            rep.failCommit = oracle.violations().front().commit;
        } else {
            const std::string err = m.mem().validateCoherence();
            if (!err.empty()) {
                rep.failed = true;
                rep.message = "final validateCoherence: " + err;
                rep.failCommit = oracle.commits();
            }
        }

        std::uint64_t h = 14695981039346656037ull;
        h = fnv1a(h, static_cast<std::uint64_t>(r.time));
        h = fnv1a(h, oracle.commits());
        for (const sim::ProcStats& st : r.procs) {
            h = fnv1a(h, st.t.busy);
            h = fnv1a(h, st.t.memStall);
            h = fnv1a(h, st.t.syncWait);
            h = fnv1a(h, st.t.syncOp);
            h = fnv1a(h, st.c.loads);
            h = fnv1a(h, st.c.stores);
            h = fnv1a(h, st.c.l2Hits);
            h = fnv1a(h, st.c.missLocal);
            h = fnv1a(h, st.c.missRemoteClean);
            h = fnv1a(h, st.c.missRemoteDirty);
            h = fnv1a(h, st.c.upgrades);
            h = fnv1a(h, st.c.invalsSent);
            h = fnv1a(h, st.c.invalsReceived);
            h = fnv1a(h, st.c.invalsSpurious);
            h = fnv1a(h, st.c.updatesSent);
            h = fnv1a(h, st.c.updatesReceived);
            h = fnv1a(h, st.c.writebacks);
            h = fnv1a(h, st.c.prefetchesIssued);
            h = fnv1a(h, st.c.prefetchesUseful);
            h = fnv1a(h, st.c.lockAcquires);
            h = fnv1a(h, st.c.barriersPassed);
        }
        // The final directory, in address order: every held entry's
        // line, state, owner, overflow flag and sharers.
        m.mem().directory().forEach(
            [&](sim::LineAddr line, const sim::DirEntry& e) {
                h = fnv1a(h, line);
                h = fnv1a(h, static_cast<std::uint64_t>(e.state));
                h = fnv1a(h, static_cast<std::uint64_t>(e.owner));
                h = fnv1a(h, e.overflow);
                e.sharers.forEach([&](sim::ProcId s) {
                    h = fnv1a(h, static_cast<std::uint64_t>(s));
                });
            });
        rep.stateHash = h;
    } catch (const std::exception& e) {
        rep.failed = true;
        rep.message = std::string("simulator error: ") + e.what();
    }
    return rep;
}

StressReport
runStress(const StressOptions& opt)
{
    return execute(generate(opt), opt);
}

std::string
formatWitness(const StressProgram& prog)
{
    std::ostringstream os;
    os << prog.numOps() << " ops over " << prog.procs()
       << " processors\n";
    for (int p = 0; p < prog.procs(); ++p) {
        const auto& trace = prog.ops[static_cast<std::size_t>(p)];
        if (trace.empty())
            continue;
        os << "  proc " << p << ":\n";
        for (const Op& op : trace) {
            os << "    " << kindName(op.kind);
            if (isMemOp(op.kind))
                os << ' ' << regionName(op.region) << '[' << op.slot
                   << ']';
            else if (op.kind == OpKind::Busy)
                os << ' ' << op.slot << " cycles";
            else if (op.kind == OpKind::LockAcq ||
                     op.kind == OpKind::LockRel)
                os << " lock " << op.slot;
            if (op.group != 0)
                os << "  (group " << op.group << ')';
            os << '\n';
        }
    }
    return os.str();
}

} // namespace ccnuma::check
