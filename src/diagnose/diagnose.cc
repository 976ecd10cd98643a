#include "diagnose/diagnose.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "apps/registry.hh"
#include "core/study_runner.hh"
#include "obs/json.hh"

namespace ccnuma::diagnose {

namespace {

using obs::LatencyHisto;
using sim::Cycles;

#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string
fmt(const char* f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

double
safeDiv(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

HistoSummary
summarize(const LatencyHisto& h)
{
    HistoSummary s;
    s.count = h.count();
    s.mean = h.mean();
    s.min = h.min();
    s.max = h.max();
    h.forEachBucket([&s](Cycles lo, Cycles hi, std::uint64_t n) {
        (void)hi;
        int i = 0;
        while (LatencyHisto::bucketLo(i) < lo &&
               i + 1 < LatencyHisto::kBuckets)
            ++i;
        s.buckets[i] += n;
    });
    return s;
}

/// Queueing delay above the uncontended (minimum observed) latency.
double
contentionCycles(const HistoSummary& h)
{
    if (h.count == 0 || h.mean <= static_cast<double>(h.min))
        return 0.0;
    return (h.mean - static_cast<double>(h.min)) *
           static_cast<double>(h.count);
}

/// Build a RunObservation from one finished grid cell.
RunObservation
observe(const core::RunOutcome& out, const analyze::SyncProfile& prof,
        std::size_t top_lines)
{
    RunObservation r;
    r.procs = out.nprocs;
    const sim::RunResult& rr = out.m.par;
    r.time = rr.time;
    r.counters = rr.totals();
    for (const sim::ProcStats& ps : rr.procs) {
        r.times.busy += ps.t.busy;
        r.times.memStall += ps.t.memStall;
        r.times.syncWait += ps.t.syncWait;
        r.times.syncOp += ps.t.syncOp;
        r.times.lockWait += ps.t.lockWait;
        r.times.barrierWait += ps.t.barrierWait;
        r.maxBarrierWait = std::max(r.maxBarrierWait, ps.t.barrierWait);
        r.maxLockWait = std::max(r.maxLockWait, ps.t.lockWait);
    }
    r.sync = prof.summary();

    const obs::Trace* t = rr.trace.get();
    if (t && t->config().intervals) {
        r.traced = true;
        r.histLocal = summarize(t->histLocal());
        r.histRemoteClean = summarize(t->histRemoteClean());
        r.histRemoteDirty = summarize(t->histRemoteDirty());
        r.histUpgrade = summarize(t->histUpgrade());
        const obs::EpochSeries& es = t->epochs();
        r.epochs.reserve(es.numEpochs());
        for (std::size_t i = 0; i < es.numEpochs(); ++i) {
            const sim::ProcTimes& et = es.epoch(i).t;
            r.epochs.push_back({et.busy, et.memStall, et.lockWait,
                                et.barrierWait, et.syncOp});
        }
        if (t->config().sharing) {
            for (const auto& lr : t->sharing().hotLines(top_lines)) {
                HotLine hl;
                hl.line = lr.line;
                hl.cls = obs::SharingProfiler::className(lr.cls);
                hl.traffic = lr.traffic();
                hl.invalidations = lr.invalidations;
                hl.dirtyMisses = lr.dirtyMisses;
                hl.upgrades = lr.upgrades;
                hl.procsTouched = lr.procsTouched;
                hl.wordsShared = lr.wordsShared;
                r.hotLines.push_back(std::move(hl));
            }
        }
    }
    return r;
}

/// Misses per thousand program accesses (the capacity fingerprint).
double
missesPerKiloAccess(const RunObservation& r)
{
    const double acc =
        static_cast<double>(r.counters.loads + r.counters.stores);
    return safeDiv(static_cast<double>(r.counters.misses()) * 1000.0,
                   acc);
}

/// The attribution model of the file comment in diagnose.hh.
void
scoreCauses(AppDiagnosis& d)
{
    const RunObservation& ref = d.ref();
    const RunObservation& foc = d.focus();

    CauseScore lock{Cause::LockSerialization, 0, 0, {}};
    CauseScore barrier{Cause::BarrierImbalance, 0, 0, {}};
    CauseScore hub{Cause::HubContention, 0, 0, {}};
    CauseScore place{Cause::DataPlacement, 0, 0, {}};
    CauseScore cap{Cause::Capacity, 0, 0, {}};

    // Synchronization waits are pure loss (the reference has none).
    lock.lostCycles = static_cast<double>(foc.times.lockWait);
    barrier.lostCycles = static_cast<double>(foc.times.barrierWait);

    // Memory excess over the reference, split three ways.
    const double mem_excess = static_cast<double>(foc.times.memStall) -
                              static_cast<double>(ref.times.memStall);
    double contention = 0, placement = 0;
    if (foc.traced) {
        contention = contentionCycles(foc.histLocal) +
                     contentionCycles(foc.histRemoteClean) +
                     contentionCycles(foc.histRemoteDirty) +
                     contentionCycles(foc.histUpgrade);
        // Uncontended remote premium over an uncontended local miss.
        Cycles local_min = foc.histLocal.count ? foc.histLocal.min : 0;
        if (local_min == 0 && ref.traced && ref.histLocal.count)
            local_min = ref.histLocal.min;
        if (local_min > 0) {
            if (foc.histRemoteClean.count &&
                foc.histRemoteClean.min > local_min)
                placement +=
                    static_cast<double>(foc.histRemoteClean.min -
                                        local_min) *
                    static_cast<double>(foc.histRemoteClean.count);
            if (foc.histRemoteDirty.count &&
                foc.histRemoteDirty.min > local_min)
                placement +=
                    static_cast<double>(foc.histRemoteDirty.min -
                                        local_min) *
                    static_cast<double>(foc.histRemoteDirty.count);
        }
    }
    hub.lostCycles = contention;
    place.lostCycles = placement;
    cap.lostCycles = mem_excess - contention - placement;

    // ---- evidence ----
    const auto& fc = foc.counters;
    lock.evidence.push_back(
        fmt("lockWait %llu cycles across %d procs (worst proc %llu)",
            static_cast<unsigned long long>(foc.times.lockWait),
            foc.procs,
            static_cast<unsigned long long>(foc.maxLockWait)));
    lock.evidence.push_back(
        fmt("%llu/%llu acquires contended (%.0f%%)",
            static_cast<unsigned long long>(fc.lockContended),
            static_cast<unsigned long long>(fc.lockAcquires),
            safeDiv(static_cast<double>(fc.lockContended) * 100.0,
                    static_cast<double>(fc.lockAcquires))));
    if (foc.sync.lockAcquires)
        lock.evidence.push_back(fmt(
            "top lock %d takes %.0f%% of %llu acquires "
            "(%d procs, %.0f%% handoffs)",
            foc.sync.topLock, foc.sync.topLockShare() * 100.0,
            static_cast<unsigned long long>(foc.sync.lockAcquires),
            foc.sync.topLockProcs, foc.sync.handoffShare() * 100.0));

    const double mean_bw =
        safeDiv(static_cast<double>(foc.times.barrierWait), foc.procs);
    barrier.evidence.push_back(
        fmt("barrierWait %llu cycles over %llu episodes",
            static_cast<unsigned long long>(foc.times.barrierWait),
            static_cast<unsigned long long>(foc.sync.barrierEpisodes)));
    if (mean_bw > 0)
        barrier.evidence.push_back(fmt(
            "worst proc waits %llu cycles, %.1fx the mean "
            "(imbalance)",
            static_cast<unsigned long long>(foc.maxBarrierWait),
            static_cast<double>(foc.maxBarrierWait) / mean_bw));

    if (foc.traced) {
        const auto note = [&hub](const char* name,
                                 const HistoSummary& h) {
            if (h.count && h.mean > static_cast<double>(h.min) * 1.05)
                hub.evidence.push_back(
                    fmt("%s misses: mean %.0f vs uncontended %llu "
                        "cycles (x%llu)",
                        name, h.mean,
                        static_cast<unsigned long long>(h.min),
                        static_cast<unsigned long long>(h.count)));
        };
        note("local", foc.histLocal);
        note("remote-clean", foc.histRemoteClean);
        note("remote-dirty", foc.histRemoteDirty);
        note("upgrade", foc.histUpgrade);
    } else {
        hub.evidence.push_back("latency histograms unavailable "
                               "(tracing off): contention not split "
                               "out of memory stall");
    }

    place.evidence.push_back(
        fmt("%llu/%llu misses remote (%.0f%%)",
            static_cast<unsigned long long>(fc.remoteMisses()),
            static_cast<unsigned long long>(fc.misses()),
            safeDiv(static_cast<double>(fc.remoteMisses()) * 100.0,
                    static_cast<double>(fc.misses()))));
    if (fc.pageMigrations)
        place.evidence.push_back(
            fmt("%llu page migrations", static_cast<unsigned long long>(
                                            fc.pageMigrations)));

    const double mpk_ref = missesPerKiloAccess(ref);
    const double mpk_foc = missesPerKiloAccess(foc);
    cap.evidence.push_back(
        fmt("miss rate %.2f -> %.2f per 1000 accesses from P=%d to "
            "P=%d (aggregate cache grew %dx)",
            mpk_ref, mpk_foc, ref.procs, foc.procs,
            foc.procs / std::max(1, ref.procs)));
    if (cap.lostCycles < 0)
        cap.evidence.push_back("negative loss: the larger machine's "
                               "aggregate cache absorbs the working "
                               "set (superlinearity)");

    // ---- rank and normalize ----
    d.ranked = {lock, barrier, hub, place, cap};
    std::stable_sort(d.ranked.begin(), d.ranked.end(),
                     [](const CauseScore& a, const CauseScore& b) {
                         return a.lostCycles > b.lostCycles;
                     });
    double total_lost = 0;
    for (const CauseScore& c : d.ranked)
        if (c.lostCycles > 0)
            total_lost += c.lostCycles;
    for (CauseScore& c : d.ranked)
        c.share = total_lost > 0 ? c.lostCycles / total_lost : 0.0;

    d.scalesWell = foc.efficiency >= core::kGoodEfficiency;
    const CauseScore& top = d.ranked.front();
    if (total_lost <= 0 || d.scalesWell)
        d.verdict = fmt("scales well: %.0f%% efficiency at P=%d "
                        "(largest loss: %s, %.0f%%)",
                        foc.efficiency * 100.0, foc.procs,
                        causeTitle(top.cause), top.share * 100.0);
    else
        d.verdict = fmt("%.0f%% efficiency at P=%d: dominated by %s "
                        "(%.0f%% of %.3g lost cycles)",
                        foc.efficiency * 100.0, foc.procs,
                        causeTitle(top.cause), top.share * 100.0,
                        total_lost);
}

AppDiagnosis
diagnoseImpl(const std::string& label, const core::AppFactory& factory,
             std::uint64_t size, const DiagnoseOptions& opt)
{
    AppDiagnosis d;
    d.app = label;
    d.size = size;
    d.protocol = opt.protocol.name();
    d.dirFormat = opt.dirFormat.name();

    std::vector<int> grid = opt.procs;
    std::sort(grid.begin(), grid.end());
    grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
    if (grid.empty() || grid.front() < 1) {
        d.error = "empty or invalid --procs grid";
        return d;
    }

    // One SyncProfile per grid cell, pre-sized so worker threads can
    // write through stable pointers.
    std::vector<analyze::SyncProfile> profiles(grid.size());
    core::StudyPlan plan;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        sim::MachineConfig cfg = sim::MachineConfig::origin2000(grid[i]);
        cfg.protocol = opt.protocol;
        cfg.dirFormat = opt.dirFormat;
        cfg.trace.intervals = true;
        cfg.trace.sharing = true;
        if (opt.epochCycles)
            cfg.trace.epochCycles = opt.epochCycles;
        analyze::SyncProfile* prof = &profiles[i];
        core::RunSpec spec;
        spec.name = label + " P=" + std::to_string(grid[i]);
        spec.cfg = cfg;
        spec.factory = factory;
        spec.baseline = false;
        spec.preRun = [prof](sim::Machine& m) {
            m.attachSyncObserver(prof);
        };
        plan.add(std::move(spec));
    }

    core::StudyRunner runner({.jobs = opt.jobs, .progress = opt.progress});
    const core::StudyResult res = runner.run(plan);

    for (std::size_t i = 0; i < res.runs.size(); ++i) {
        const core::RunOutcome& out = res.runs[i];
        if (!out.ok) {
            d.error = out.name + ": " + out.error;
            return d;
        }
        d.runs.push_back(observe(out, profiles[i], opt.topLines));
    }

    // Speedup/efficiency versus the smallest grid point: with P=1 in
    // the grid this is the paper's metric exactly.
    const RunObservation& ref = d.runs.front();
    const double ref_cost =
        static_cast<double>(ref.time) * ref.procs;
    for (RunObservation& r : d.runs) {
        r.speedup = safeDiv(static_cast<double>(ref.time),
                            static_cast<double>(r.time));
        r.efficiency =
            safeDiv(ref_cost, static_cast<double>(r.time) * r.procs);
    }

    scoreCauses(d);
    d.ok = true;
    return d;
}

void
writeHisto(obs::JsonWriter& w, const std::string& key,
           const HistoSummary& h)
{
    w.beginObject(key);
    w.field("count", h.count);
    w.field("mean", h.mean);
    w.field("min", static_cast<std::uint64_t>(h.min));
    w.field("max", static_cast<std::uint64_t>(h.max));
    w.endObject();
}

void
writeApp(obs::JsonWriter& w, const AppDiagnosis& d)
{
    w.beginObject();
    w.field("app", d.app);
    w.field("size", d.size);
    w.beginObject("machine");
    w.field("protocol", d.protocol);
    w.field("dirFormat", d.dirFormat);
    w.endObject();
    w.field("ok", d.ok);
    if (!d.ok) {
        w.field("error", d.error);
        w.endObject();
        return;
    }
    w.field("scalesWell", d.scalesWell);
    w.field("verdict", d.verdict);
    w.field("primaryCause", causeName(d.ranked.front().cause));

    w.beginArray("causes");
    for (const CauseScore& c : d.ranked) {
        w.beginObject();
        w.field("cause", causeName(c.cause));
        w.field("lostCycles", c.lostCycles);
        w.field("share", c.share);
        w.beginArray("evidence");
        for (const std::string& e : c.evidence)
            w.field("", e);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.beginArray("runs");
    for (const RunObservation& r : d.runs) {
        w.beginObject();
        w.field("procs", r.procs);
        w.field("time", static_cast<std::uint64_t>(r.time));
        w.field("speedup", r.speedup);
        w.field("efficiency", r.efficiency);
        w.field("busy", static_cast<std::uint64_t>(r.times.busy));
        w.field("memStall",
                static_cast<std::uint64_t>(r.times.memStall));
        w.field("lockWait",
                static_cast<std::uint64_t>(r.times.lockWait));
        w.field("barrierWait",
                static_cast<std::uint64_t>(r.times.barrierWait));
        w.field("syncOp", static_cast<std::uint64_t>(r.times.syncOp));
        w.field("misses", r.counters.misses());
        w.field("remoteMisses", r.counters.remoteMisses());
        w.field("lockAcquires", r.counters.lockAcquires);
        w.field("lockContended", r.counters.lockContended);
        w.field("barriersPassed", r.counters.barriersPassed);
        if (r.traced) {
            writeHisto(w, "histLocal", r.histLocal);
            writeHisto(w, "histRemoteClean", r.histRemoteClean);
            writeHisto(w, "histRemoteDirty", r.histRemoteDirty);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

const char*
causeName(Cause c)
{
    switch (c) {
    case Cause::LockSerialization: return "lock_serialization";
    case Cause::BarrierImbalance: return "barrier_imbalance";
    case Cause::HubContention: return "hub_contention";
    case Cause::DataPlacement: return "data_placement";
    case Cause::Capacity: return "capacity";
    }
    return "?";
}

const char*
causeTitle(Cause c)
{
    switch (c) {
    case Cause::LockSerialization: return "lock serialization";
    case Cause::BarrierImbalance: return "barrier imbalance";
    case Cause::HubContention: return "Hub/memory contention";
    case Cause::DataPlacement: return "data placement";
    case Cause::Capacity: return "cache capacity";
    }
    return "?";
}

const CauseScore*
AppDiagnosis::score(Cause c) const
{
    for (const CauseScore& s : ranked)
        if (s.cause == c)
            return &s;
    return nullptr;
}

AppDiagnosis
diagnoseApp(const std::string& name, const DiagnoseOptions& opt)
{
    // Throws for an unknown name before any run starts.
    const std::uint64_t golden = apps::goldenSize(name);
    const std::uint64_t size = opt.size ? opt.size : golden;
    return diagnoseImpl(
        name, [name, size] { return apps::makeApp(name, size); }, size,
        opt);
}

AppDiagnosis
diagnoseFactory(const std::string& label,
                const core::AppFactory& factory,
                const DiagnoseOptions& opt)
{
    return diagnoseImpl(label, factory, opt.size, opt);
}

std::vector<AppDiagnosis>
diagnoseAllApps(const DiagnoseOptions& opt)
{
    std::vector<AppDiagnosis> out;
    for (const std::string& name : apps::listApps())
        out.push_back(diagnoseApp(name, opt));
    return out;
}

void
writeDiagnoseJson(std::ostream& os,
                  const std::vector<AppDiagnosis>& results)
{
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "ccnuma-diagnose-v2");
    w.beginArray("apps");
    for (const AppDiagnosis& d : results)
        writeApp(w, d);
    w.endArray();
    w.endObject();
    os << "\n";
}

bool
writeDiagnoseJsonFile(const std::string& path,
                      const std::vector<AppDiagnosis>& results)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeDiagnoseJson(os, results);
    return os.good();
}

void
emitMetrics(const AppDiagnosis& d, core::MetricsSink& sink)
{
    const std::string& label = d.app;
    sink.addText(label, "machine/protocol", d.protocol);
    sink.addText(label, "machine/dirFormat", d.dirFormat);
    sink.addText(label, "verdict", d.verdict);
    if (!d.ok) {
        sink.addText(label, "error", d.error);
        return;
    }
    sink.addText(label, "primaryCause",
                 causeName(d.ranked.front().cause));
    sink.addScalar(label, "efficiency", d.focus().efficiency);
    for (const CauseScore& c : d.ranked)
        sink.addScalar(label, std::string(causeName(c.cause)) + "Share",
                       c.share);
}

} // namespace ccnuma::diagnose
