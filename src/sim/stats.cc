#include "sim/stats.hh"

namespace ccnuma::sim {

Breakdown
RunResult::breakdown() const
{
    Breakdown b;
    if (procs.empty())
        return b;
    for (std::size_t p = 0; p < procs.size(); ++p) {
        const Breakdown pb = breakdown(static_cast<int>(p));
        b.busy += pb.busy;
        b.mem += pb.mem;
        b.sync += pb.sync;
    }
    const double n = static_cast<double>(procs.size());
    b.busy /= n;
    b.mem /= n;
    b.sync /= n;
    return b;
}

Breakdown
RunResult::breakdown(int p) const
{
    Breakdown b;
    const ProcTimes& t = procs[p].t;
    // Normalize against the run's end time so that trailing idle time at
    // the final barrier is visible as sync, matching the paper's
    // per-processor continuum figures.
    const double total = static_cast<double>(
        time > t.total() ? time : t.total());
    if (total == 0)
        return b;
    b.busy = t.busy / total;
    b.mem = t.memStall / total;
    b.sync = (t.sync() + (time > t.total() ? time - t.total() : 0)) /
             total;
    return b;
}

ProcCounters
RunResult::totals() const
{
    ProcCounters sum;
    for (const ProcStats& ps : procs) {
        const ProcCounters& c = ps.c;
        sum.loads += c.loads;
        sum.stores += c.stores;
        sum.l2Hits += c.l2Hits;
        sum.missLocal += c.missLocal;
        sum.missRemoteClean += c.missRemoteClean;
        sum.missRemoteDirty += c.missRemoteDirty;
        sum.upgrades += c.upgrades;
        sum.invalsSent += c.invalsSent;
        sum.invalsReceived += c.invalsReceived;
        sum.invalsSpurious += c.invalsSpurious;
        sum.updatesSent += c.updatesSent;
        sum.updatesReceived += c.updatesReceived;
        sum.writebacks += c.writebacks;
        sum.prefetchesIssued += c.prefetchesIssued;
        sum.prefetchesUseful += c.prefetchesUseful;
        sum.pageMigrations += c.pageMigrations;
        sum.lockAcquires += c.lockAcquires;
        sum.lockContended += c.lockContended;
        sum.barriersPassed += c.barriersPassed;
    }
    return sum;
}

} // namespace ccnuma::sim
