/**
 * @file
 * The two simulation workloads.
 *
 * sim-hot drives makeApp -> Machine -> App::setup -> Machine::run on
 * one thread over five large cases whose access mixes differ (mostly
 * hits, local-miss stencil, all-to-all remote misses, remote-dirty
 * misses under directory pressure, locks and task stealing), so a
 * hot-path change shows in full and a gain for one access class that
 * costs another shows too.
 *
 * fig2-study is the paper's Figure-2 method at the golden quick sizes:
 * the eleven original apps on 32, 128 and 256 processors against a
 * shared uniprocessor baseline, through core::StudyRunner with two
 * jobs. At these sizes the fixed cost of each run (machine
 * construction, setup, the study layer) is a large share, which
 * sim-hot barely shows.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>

#include "apps/registry.hh"
#include "apps/trace.hh"
#include "check/golden.hh"
#include "core/metrics.hh"
#include "core/study_runner.hh"
#include "sim/cache.hh"
#include "sim/machine.hh"
#include "sim/memsys.hh"
#include "sim/topology.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

struct HotCase {
    const char* app;
    std::uint64_t size;
    int procs;

    std::string label() const
    {
        return std::string(app) + "-p" + std::to_string(procs);
    }
};

const HotCase kHotCases[] = {
    {"water-nsq", 2048, 64},   // mostly cache hits
    {"ocean", 514, 64},        // local-miss stencil
    {"fft", 1u << 18, 64},     // all-to-all remote misses
    {"radix", 1u << 20, 128},  // remote-dirty misses, directory pressure
    {"raytrace", 64, 64},      // locks and task stealing
};

const int kFig2Procs[] = {32, 128, 256};
constexpr int kFig2Jobs = 2;

/// Host seconds of the four layer calls of one simulation.
struct CallTimes {
    double make = 0, build = 0, setup = 0, run = 0;
};

/// Counts a pass accumulates for the per-layer report.
struct PassCounts {
    std::uint64_t memOps = 0, cycles = 0, l2Hits = 0, missLocal = 0,
                  missRemoteClean = 0, missRemoteDirty = 0, upgrades = 0,
                  invalsSent = 0, writebacks = 0, lockContended = 0,
                  barriers = 0;

    void add(const sim::RunResult& r)
    {
        const sim::ProcCounters c = r.totals();
        memOps += c.loads + c.stores;
        cycles += static_cast<std::uint64_t>(r.time);
        l2Hits += c.l2Hits;
        missLocal += c.missLocal;
        missRemoteClean += c.missRemoteClean;
        missRemoteDirty += c.missRemoteDirty;
        upgrades += c.upgrades;
        invalsSent += c.invalsSent;
        writebacks += c.writebacks;
        lockContended += c.lockContended;
        barriers += c.barriersPassed;
    }

    void report(LayerReport& out) const
    {
        out.set("sim.mem_ops", static_cast<double>(memOps));
        out.set("sim.cycles", static_cast<double>(cycles));
        out.set("sim.l2_hits", static_cast<double>(l2Hits));
        out.set("sim.miss_local", static_cast<double>(missLocal));
        out.set("sim.miss_remote_clean",
                static_cast<double>(missRemoteClean));
        out.set("sim.miss_remote_dirty",
                static_cast<double>(missRemoteDirty));
        out.set("sim.upgrades", static_cast<double>(upgrades));
        out.set("sim.invals_sent", static_cast<double>(invalsSent));
        out.set("sim.writebacks", static_cast<double>(writebacks));
        out.set("sim.lock_contended", static_cast<double>(lockContended));
        out.set("sim.barriers", static_cast<double>(barriers));
    }
};

/// "passes: N, min/median/max S s".
std::string
passNote(const std::vector<double>& wall)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%zu untraced passes, min/median/max %.4f/%.4f/%.4f s",
                  wall.size(), *std::min_element(wall.begin(), wall.end()),
                  median(wall), *std::max_element(wall.begin(), wall.end()));
    return buf;
}

std::uint64_t
memOps(const sim::RunResult& r)
{
    const sim::ProcCounters c = r.totals();
    return c.loads + c.stores;
}

// ---------------------------------------------------------------- probes

/** Host cost of the cache and memory-system layers on one case. */
struct ProbeResult {
    std::uint64_t accesses = 0, cacheHits = 0;
    double cacheS = 0, memsysS = 0;
};

/**
 * Record `hc` with apps::recordTrace, then replay its loads and stores
 * (round-robin across processors, each in program order) through a
 * standalone sim::Cache per processor and through a standalone
 * sim::MemSys. Neither replay sees the scheduler, the coroutines or the
 * Cpu, so the two timings isolate the cache scan and the full
 * memory-system access on this workload's own address stream.
 */
ProbeResult
probeCase(const HotCase& hc)
{
    const sim::MachineConfig cfg =
        sim::MachineConfig::origin2000(hc.procs).resolved();
    apps::RecordedTrace rt = [&] {
        apps::AppPtr app = apps::makeApp(hc.app, hc.size);
        return apps::recordTrace(cfg, *app);
    }();

    struct Access {
        sim::Addr addr;
        sim::ProcId proc;
        bool write;
    };
    std::vector<Access> stream;
    stream.reserve(rt.run.totals().loads + rt.run.totals().stores);
    std::vector<std::size_t> next(rt.trace.ops.size(), 0);
    for (bool more = true; more;) {
        more = false;
        for (std::size_t p = 0; p < rt.trace.ops.size(); ++p) {
            const auto& ops = rt.trace.ops[p];
            std::size_t& i = next[p];
            while (i < ops.size() && ops[i].kind != sim::OpKind::Read &&
                   ops[i].kind != sim::OpKind::Write)
                ++i;
            if (i == ops.size())
                continue;
            stream.push_back({ops[i].arg, static_cast<sim::ProcId>(p),
                              ops[i].kind == sim::OpKind::Write});
            ++i;
            more = true;
        }
    }

    ProbeResult out;
    out.accesses = stream.size();
    {
        std::vector<std::unique_ptr<sim::Cache>> caches;
        for (int p = 0; p < hc.procs; ++p)
            caches.push_back(std::make_unique<sim::Cache>(
                cfg.cacheBytes, cfg.cacheAssoc, cfg.lineBytes));
        const double t0 = nowS();
        for (const Access& a : stream)
            out.cacheHits += caches[a.proc]->access(a.addr, a.write).hit;
        out.cacheS = nowS() - t0;
    }
    {
        sim::Topology topo(cfg);
        sim::MemSys ms(cfg, topo);
        std::vector<sim::ProcStats> stats(static_cast<std::size_t>(
            hc.procs));
        ms.attachStats(&stats);
        std::vector<sim::NodeId> across(static_cast<std::size_t>(
            hc.procs));
        for (int p = 0; p < hc.procs; ++p)
            across[static_cast<std::size_t>(p)] = topo.nodeOfProcess(p);
        for (const apps::Trace::Setup& s : rt.trace.setup) {
            if (s.kind == apps::Trace::Setup::Kind::Place)
                ms.place(s.a, s.b, static_cast<sim::NodeId>(s.c));
            else if (s.kind == apps::Trace::Setup::Kind::PlaceAcross)
                ms.placeBlocked(s.a, s.b, across);
        }
        std::vector<sim::Cycles> now(static_cast<std::size_t>(hc.procs),
                                     0);
        const double t0 = nowS();
        for (const Access& a : stream)
            now[a.proc] +=
                1 + ms.access(a.proc, now[a.proc], a.addr, a.write,
                              stats[a.proc]);
        out.memsysS = nowS() - t0;
    }
    return out;
}

/// Run the probes over every sim-hot case and report them.
void
reportProbes(LayerReport& out)
{
    ProbeResult sum;
    for (const HotCase& hc : kHotCases) {
        const ProbeResult r = probeCase(hc);
        sum.accesses += r.accesses;
        sum.cacheHits += r.cacheHits;
        sum.cacheS += r.cacheS;
        sum.memsysS += r.memsysS;
    }
    const double n = static_cast<double>(sum.accesses);
    out.set("sim.probe.accesses", n);
    out.set("sim.probe.cache_hits", static_cast<double>(sum.cacheHits));
    out.set("sim.cache.access_ns", sum.cacheS * 1e9 / n);
    out.set("sim.memsys.access_ns", sum.memsysS * 1e9 / n);
}

// ---------------------------------------------------------------- sim-hot

struct HotRun {
    CallTimes t;
    double start = 0, end = 0;
    sim::RunResult r;
};

HotRun
runHotCase(const HotCase& hc)
{
    HotRun out;
    out.start = nowS();
    apps::AppPtr app = apps::makeApp(hc.app, hc.size);
    const double t1 = nowS();
    sim::Machine m(sim::MachineConfig::origin2000(hc.procs));
    const double t2 = nowS();
    app->setup(m);
    const double t3 = nowS();
    out.r = m.run(app->program());
    out.end = nowS();
    out.t = {t1 - out.start, t2 - t1, t3 - t2, out.end - t3};
    return out;
}

} // namespace

Outcome
runSimHot(const Options& opt, Pins& pins, Spans& spans)
{
    Outcome out;
    std::mt19937_64 rng(opt.seed);
    const std::size_t ncases = std::size(kHotCases);

    struct Pass {
        bool traced = false;
        double wall = 0, setup = 0;
        CallTimes t;
        PassCounts counts;
    };
    std::vector<Pass> passes;
    std::vector<double> caseMs;
    std::map<std::string, std::pair<double, std::uint64_t>> perCase;
    std::map<std::string, std::vector<double>> caseMsById;

    const double deadline = nowS() + opt.seconds;
    while (passes.size() < 3 || nowS() < deadline) {
        std::vector<std::size_t> order(ncases);
        for (std::size_t i = 0; i < ncases; ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);

        // The traced run alternates traced and untraced passes; their
        // difference is the tracing overhead.
        Pass pass;
        pass.traced = opt.trace && passes.size() % 2 == 0;
        spans.enable(pass.traced);
        const double p0 = nowS();
        std::vector<std::pair<std::size_t, HotRun>> runs;
        for (const std::size_t ci : order) {
            const HotCase& hc = kHotCases[ci];
            HotRun hr = runHotCase(hc);
            ++out.attempted;
            if (!pins.check("sim-hot", hc.label(),
                            asPinFields(pinCounters(hr.r))))
                ++out.failed;
            runs.emplace_back(ci, std::move(hr));
        }
        pass.wall = nowS() - p0;

        const int passSpan =
            spans.add("sim-hot.pass", p0, p0 + pass.wall, -1,
                      "pass" + std::to_string(passes.size()));
        for (const auto& [ci, hr] : runs) {
            const std::string id = kHotCases[ci].label();
            pass.t.make += hr.t.make;
            pass.t.build += hr.t.build;
            pass.t.setup += hr.t.setup;
            pass.t.run += hr.t.run;
            pass.counts.add(hr.r);
            caseMs.push_back((hr.end - hr.start) * 1e3);
            caseMsById[id].push_back((hr.end - hr.start) * 1e3);
            if (pass.traced) {
                auto& pc = perCase[id];
                pc.first += hr.t.run;
                pc.second += memOps(hr.r);
            }
            const int c = spans.add("case", hr.start, hr.end, passSpan, id);
            double t = hr.start;
            const std::pair<const char*, double> calls[] = {
                {"apps.make", hr.t.make},
                {"sim.build", hr.t.build},
                {"apps.setup", hr.t.setup},
                {"sim.run", hr.t.run}};
            for (const auto& [name, d] : calls) {
                spans.add(name, t, t + d, c, id);
                t += d;
            }
        }
        pass.setup = pass.t.make + pass.t.build + pass.t.setup;
        passes.push_back(pass);
    }
    spans.enable(false);

    const std::uint64_t opsPerPass = passes.front().counts.memOps;
    std::vector<double> wall, setup;
    for (const Pass& p : passes)
        if (!opt.trace || !p.traced) {
            wall.push_back(p.wall);
            setup.push_back(p.setup);
        }
    const double passS = median(wall);
    std::string note = "case median ms:";
    for (const auto& [id, v] : caseMsById)
        note += " " + id + "=" + std::to_string(median(v));
    out.notes.push_back(note);
    out.notes.push_back(passNote(wall));

    if (!opt.trace) {
        out.add("setup_s", median(setup), "s");
        out.add("pass_s", passS, "s");
        out.add("sim_mops_per_s",
                static_cast<double>(opsPerPass) / (passS * 1e6), "1/us");
        out.add("peak_rss_mb", peakRssMb(), "MB");
        out.add("p95_ms", quantile(caseMs, 0.95), "ms");
        return out;
    }

    LayerReport& lr = out.layers;
    std::vector<double> make, build, su, run, traced;
    for (const Pass& p : passes)
        if (p.traced) {
            make.push_back(p.t.make);
            build.push_back(p.t.build);
            su.push_back(p.t.setup);
            run.push_back(p.t.run);
            traced.push_back(p.wall);
        }
    lr.set("apps.make_s", median(make));
    lr.set("apps.setup_s", median(su));
    lr.set("sim.build_s", median(build));
    lr.set("sim.run_s", median(run));
    double runS = 0;
    std::uint64_t ops = 0;
    for (const auto& [id, v] : perCase) {
        lr.set("sim.ns_per_op." + id, v.first * 1e9 /
                                          static_cast<double>(v.second));
        runS += v.first;
        ops += v.second;
    }
    const double nsPerOp = runS * 1e9 / static_cast<double>(ops);
    lr.set("sim.ns_per_op", nsPerOp);
    passes.front().counts.report(lr);
    reportProbes(lr);
    lr.set("sim.engine_ns_per_op", nsPerOp - lr.get("sim.memsys.access_ns"));
    lr.set("trace.overhead_s", median(traced) - passS);
    lr.set("trace.spans", static_cast<double>(spans.size()));
    return out;
}

// ------------------------------------------------------------- fig2-study

namespace {

/**
 * Host timing of one grid cell, gathered from the hooks core already
 * exposes: the AppFactory callback (makeApp), an App wrapper around
 * App::setup and App::program (Machine construction is the gap between
 * the factory returning and setup starting; Machine::run starts when
 * the program is taken and ends when the app is released), and
 * RunOutcome::seconds for the whole cell. A cell runs on one worker
 * thread, so its record needs no lock.
 */
struct CellRecord {
    CallTimes t;
    struct Call {
        bool baseline = false;
        double f0 = 0, f1 = 0, s0 = 0, s1 = 0, r0 = 0, r1 = 0;
    };
    std::vector<Call> calls;
};

class TimedApp : public apps::App
{
  public:
    TimedApp(apps::AppPtr inner, CellRecord& rec, double f0)
        : inner_(std::move(inner)), rec_(rec), idx_(rec.calls.size())
    {
        rec_.calls.push_back({});
        call().f0 = f0;
        call().f1 = nowS();
    }
    ~TimedApp() override
    {
        call().r1 = nowS();
        const CellRecord::Call& c = call();
        rec_.t.make += c.f1 - c.f0;
        rec_.t.build += c.s0 - c.f1;
        rec_.t.setup += c.s1 - c.s0;
        rec_.t.run += c.r1 - c.r0;
    }
    TimedApp(const TimedApp&) = delete;
    TimedApp& operator=(const TimedApp&) = delete;

    std::string name() const override { return inner_->name(); }
    void setup(sim::Machine& m) override
    {
        call().baseline = m.config().numProcs == 1;
        call().s0 = nowS();
        inner_->setup(m);
        call().s1 = nowS();
    }
    sim::Machine::Program program() override
    {
        call().r0 = nowS();
        return inner_->program();
    }

  private:
    CellRecord::Call& call() { return rec_.calls[idx_]; }

    apps::AppPtr inner_;
    CellRecord& rec_;
    std::size_t idx_;
};

std::string
fig2Label(const std::string& app, int procs)
{
    return app + "-p" + std::to_string(procs);
}

} // namespace

Outcome
runFig2Study(const Options& opt, Pins& pins, Spans& spans)
{
    Outcome out;
    std::mt19937_64 rng(opt.seed);

    struct Cell {
        std::string app;
        int procs;
    };
    std::vector<Cell> grid;
    for (const std::string& app : apps::originalApps())
        for (const int p : kFig2Procs)
            grid.push_back({app, p});

    struct Pass {
        bool traced = false;
        double wall = 0, setup = 0, busy = 0, emit = 0;
        CallTimes t;
        PassCounts counts;
        std::size_t baselines = 0;
        std::uint64_t baselineHits = 0;
    };
    std::vector<Pass> passes;
    std::vector<double> cellMs;

    const double deadline = nowS() + opt.seconds;
    while (passes.size() < 3 || nowS() < deadline) {
        std::vector<Cell> order = grid;
        std::shuffle(order.begin(), order.end(), rng);
        std::vector<CellRecord> recs(order.size());

        Pass pass;
        pass.traced = opt.trace && passes.size() % 2 == 0;
        spans.enable(pass.traced);

        core::StudyPlan plan;
        for (std::size_t i = 0; i < order.size(); ++i) {
            const Cell& c = order[i];
            const std::uint64_t size = check::goldenSize(c.app);
            CellRecord* rec = &recs[i];
            core::AppFactory factory = [app = c.app, size, rec] {
                const double f0 = nowS();
                return std::make_unique<TimedApp>(
                    apps::makeApp(app, size), *rec, f0);
            };
            plan.add(fig2Label(c.app, c.procs),
                     sim::MachineConfig::origin2000(c.procs),
                     std::move(factory), c.app);
        }

        // A fresh runner per pass, so every pass simulates its own
        // eleven baselines as a one-off study would.
        core::StudyRunner runner(core::StudyOptions{.jobs = kFig2Jobs});
        const double p0 = nowS();
        const core::StudyResult res = runner.run(plan);
        pass.wall = nowS() - p0;
        pass.baselines = runner.baselineCache().size();
        pass.baselineHits = runner.baselineCache().hits();

        const int passSpan = spans.add("fig2.pass", p0, p0 + pass.wall, -1,
                                       "pass" + std::to_string(
                                                    passes.size()));
        for (std::size_t i = 0; i < res.runs.size(); ++i) {
            const core::RunOutcome& r = res.runs[i];
            ++out.attempted;
            bool ok = r.ok;
            if (ok) {
                std::map<std::string, std::string> f =
                    asPinFields(pinCounters(r.m.par));
                f["seqCycles"] = std::to_string(r.m.seqTime);
                char sp[32];
                std::snprintf(sp, sizeof(sp), "%.17g", r.m.speedup());
                f["speedup"] = sp;
                ok = pins.check("fig2-study", r.name, f);
                pass.counts.add(r.m.par);
            }
            if (!ok)
                ++out.failed;
            cellMs.push_back(r.seconds * 1e3);
            pass.busy += r.seconds;

            const CellRecord& rec = recs[i];
            pass.t.make += rec.t.make;
            pass.t.build += rec.t.build;
            pass.t.setup += rec.t.setup;
            pass.t.run += rec.t.run;
            if (!pass.traced || rec.calls.empty())
                continue;
            // RunOutcome::seconds covers the cell from before its
            // baseline lookup, so waiting on another worker's baseline
            // falls inside the cell span.
            const double end = rec.calls.back().r1;
            const int c = spans.add("cell", end - r.seconds, end, passSpan,
                                    r.name);
            for (const CellRecord::Call& k : rec.calls) {
                const std::string id =
                    r.name + (k.baseline ? "/baseline" : "");
                spans.add("apps.make", k.f0, k.f1, c, id);
                spans.add("sim.build", k.f1, k.s0, c, id);
                spans.add("apps.setup", k.s0, k.s1, c, id);
                spans.add("sim.run", k.r0, k.r1, c, id);
            }
        }
        pass.setup = pass.t.make + pass.t.build + pass.t.setup;
        if (pass.traced) {
            core::MetricsSink sink = core::MetricsSink::inMemory();
            const double e0 = nowS();
            res.emit(sink);
            pass.emit = nowS() - e0;
            spans.add("core.emit", e0, e0 + pass.emit, passSpan, "");
        }
        passes.push_back(pass);
    }
    spans.enable(false);

    std::vector<double> wall, setup;
    for (const Pass& p : passes)
        if (!opt.trace || !p.traced) {
            wall.push_back(p.wall);
            setup.push_back(p.setup);
        }
    const double passS = median(wall);
    out.notes.push_back(passNote(wall));
    if (!opt.trace) {
        out.add("setup_s", median(setup), "s");
        out.add("pass_s", passS, "s");
        out.add("sim_mops_per_s",
                static_cast<double>(passes.front().counts.memOps) /
                    (passS * 1e6),
                "1/us");
        out.add("peak_rss_mb", peakRssMb(), "MB");
        out.add("p95_ms", quantile(cellMs, 0.95), "ms");
        return out;
    }

    LayerReport& lr = out.layers;
    std::vector<double> make, build, su, run, busy, emit, traced;
    std::uint64_t ops = 0;
    double runS = 0;
    for (const Pass& p : passes)
        if (p.traced) {
            make.push_back(p.t.make);
            build.push_back(p.t.build);
            su.push_back(p.t.setup);
            run.push_back(p.t.run);
            busy.push_back(p.busy / (kFig2Jobs * p.wall));
            emit.push_back(p.emit);
            traced.push_back(p.wall);
            ops += p.counts.memOps;
            runS += p.t.run;
        }
    lr.set("apps.make_s", median(make));
    lr.set("apps.setup_s", median(su));
    lr.set("sim.build_s", median(build));
    lr.set("sim.run_s", median(run));
    // Baseline runs are inside sim.run but their ops are not visible to
    // the study's caller, so this rate counts parallel-run ops only.
    lr.set("sim.ns_per_op", runS * 1e9 / static_cast<double>(ops));
    passes.front().counts.report(lr);
    lr.set("core.baselines_run",
           static_cast<double>(passes.front().baselines));
    lr.set("core.baseline_hits",
           static_cast<double>(passes.front().baselineHits));
    lr.set("core.pool_busy_frac", median(busy));
    lr.set("core.emit_s", median(emit));
    // A cell's self time is what its make/build/setup/run spans leave
    // uncovered: waiting for a baseline another worker is computing, and
    // the runner's own bookkeeping.
    lr.set("core.wait_s", spans.selfTotal("cell") /
                              static_cast<double>(traced.size()));
    lr.set("trace.overhead_s", median(traced) - passS);
    lr.set("trace.spans", static_cast<double>(spans.size()));
    return out;
}

} // namespace perfbench
