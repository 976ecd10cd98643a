/**
 * @file
 * ccnuma_paper [flags] [ID...]: regenerates the paper's tables and
 * figures (all of kArtifacts when no ID is given) next to the
 * paper-reported series; `--help` lists the flags and ids. Absolute
 * values are not expected to match the 1999 hardware, but the shapes
 * should.
 *
 * Each artifact's plan function adds its application runs to one shared
 * core::StudyPlan, which one StudyRunner runs on --jobs workers (0 = one
 * per host core); render functions then print every artifact from the
 * StudyResult in kArtifacts order. Stdout depends only on the ids,
 * --quick (trimmed sweeps) and --seed (random topology mappings);
 * progress and host timing go to stderr. Microbenchmarks on hand-written
 * programs take milliseconds and run at render time. --json=FILE dumps
 * every application run. Exits 1 if a run failed (its artifact prints
 * FAILED), 2 on a bad command line.
 */

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/cli.hh"
#include "core/metrics.hh"
#include "core/report.hh"
#include "core/study_runner.hh"
#include "sim/machine.hh"

using namespace ccnuma;
using namespace ccnuma::sim;

namespace {

/// --quick trims the machine-size sweeps; set before planning.
bool quick = false;

/** One application run of the plan. */
struct Run {
    std::string app;
    std::uint64_t size = 0;
    int procs = 0;
    MachineConfig cfg = {};
    /// Cache-size override (0 = cfg's); see DESIGN.md's scaled caches.
    std::uint64_t cacheBytes = 0;
    /// Program whose uniprocessor run is the baseline; empty = `app`.
    std::string seqApp = {};
    /// Distinguishes runs of one app, size and machine size.
    std::string tag = {};
};

/** Adds one artifact's runs to the shared plan. */
struct Planner {
    core::StudyPlan& plan;
    std::string id;
    std::uint64_t seed;

    /// Speedup of `r`. Its baseline is keyed
    /// "<id>[/<scope>]/<seqApp>:<size>": runs sharing a key divide by
    /// one uniprocessor run, that of the first of them in plan order.
    /// `scope` keeps apart runs that must not share one.
    void speedup(const std::string& scope, const Run& r)
    {
        add(r, id + (scope.empty() ? "" : "/" + scope) + "/" +
                   (r.seqApp.empty() ? r.app : r.seqApp) + ":" +
                   std::to_string(r.size));
    }
    /// A run of `r` with no baseline.
    void parallel(const Run& r) { add(r, std::nullopt); }

  private:
    /// Names are "<id>/<app>:<size>/P<procs>[/<tag>]", unique in a plan.
    void add(Run r, std::optional<std::string> key)
    {
        r.cfg.numProcs = r.procs;
        if (r.cacheBytes)
            r.cfg.cacheBytes = r.cacheBytes;
        plan.add({id + "/" + r.app + ":" + std::to_string(r.size) + "/P" +
                      std::to_string(r.procs) +
                      (r.tag.empty() ? "" : "/" + r.tag),
                  r.cfg,
                  [app = r.app, size = r.size] {
                      return apps::makeApp(app, size);
                  },
                  key.value_or(""), key.has_value(), {}});
    }
};

/** One artifact's outcomes, read back in the order its plan added them. */
struct Cells {
    const std::vector<core::RunOutcome>& runs;
    std::size_t pos;
    std::vector<const core::RunOutcome*> failed = {};

    /// The next run's measurement; a failed run reads as all zero.
    const core::Measurement& next()
    {
        const core::RunOutcome& r = runs.at(pos++);
        if (!r.ok)
            failed.push_back(&r);
        return r.m;
    }
    const RunResult& nextRun() { return next().par; }
};

/// Measure the average stall of `n` dependent misses with the given
/// setup: home node, and optionally a dirtying processor.
double
chase(NodeId home, ProcId dirtier, int lines)
{
    MachineConfig cfg;
    cfg.numProcs = 8;
    Machine m(cfg);
    const Addr a = m.alloc(static_cast<std::uint64_t>(lines) * 128);
    m.place(a, static_cast<std::uint64_t>(lines) * 128, home);
    const BarrierId bar = m.barrierCreate();
    RunResult r = m.run([=](Cpu& cpu) -> Task {
        if (cpu.id() == dirtier && dirtier != 0) {
            for (int i = 0; i < lines; ++i) {
                cpu.write(a + static_cast<Addr>(i) * 128);
                if (i % 16 == 0)
                    co_await cpu.checkpoint();
            }
        }
        co_await cpu.barrier(bar);
        if (cpu.id() == 0) {
            for (int i = 0; i < lines; ++i) {
                cpu.read(a + static_cast<Addr>(i) * 128);
                co_await cpu.checkpoint();
            }
        }
        co_return;
    });
    return static_cast<double>(r.procs[0].t.memStall) / lines *
           cfg.nsPerCycle();
}

void
renderTable1(Cells&)
{
    core::printHeader(
        "Table 1: memory latencies (simulated vs paper Origin2000)");
    const int lines = 512;
    const double local = chase(0, 0, lines);       // home = own node
    const double clean = chase(1, 0, lines);       // nearest remote
    const double dirty = chase(1, 4, lines);       // dirty in 3rd node

    std::printf("%-28s %10s %10s\n", "latency", "simulated", "paper");
    std::printf("%-28s %8.0fns %8.0fns\n", "Local", local, 338.0);
    std::printf("%-28s %8.0fns %8.0fns\n", "Remote clean", clean, 656.0);
    std::printf("%-28s %8.0fns %8.0fns\n", "Remote dirty (3rd node)",
                dirty, 892.0);
    std::printf("%-28s %9.2f:1 %9.2f:1\n", "Remote/local (clean)",
                clean / local, 2.0);
    std::printf("%-28s %9.2f:1 %9.2f:1\n", "Remote/local (dirty)",
                dirty / local, 3.0);

    // Latency vs distance: farther routers and metarouter crossings.
    core::printHeader("Remote-clean latency vs distance (128p machine)");
    MachineConfig cfg;
    cfg.numProcs = 128;
    Machine m(cfg);
    for (NodeId to : {0, 1, 2, 6, 14, 16, 48}) {
        const Cycles c = m.mem().pureFetch(0, to);
        std::printf("  node 0 -> node %-3d  %4llu cycles  %6.0f ns%s\n",
                    to, static_cast<unsigned long long>(c),
                    c * cfg.nsPerCycle(),
                    to >= 16 ? "  (metarouter crossing)" : "");
    }
}

struct SeqRow {
    const char* app;
    const char* sizeLabel;
    double paperSeconds; ///< paper sequential time
};
// Paper times are microseconds in Table 2 (labelled ms there).
const SeqRow kSeqRows[] = {
    {"barnes", "16K bodies", 7.556},
    {"infer", "CPCS-422", 0.640},
    {"fft", "2^20 points", 2.632},
    {"ocean", "1026x1026", 28.488 / 4}, // we simulate 1/4 the sweeps
    {"protein", "helix16", 1.713},
    {"radix", "4M keys", 4.555 / 2},    // 2 of 4 passes simulated
    {"raytrace", "128x128 ball", 38.186},
    {"shearwarp", "256^3 head", 8.906 / 8}, // 1 frame, scaled
    {"volrend", "256^3 head", 0.934},
    {"water-nsq", "4096 molecules", 69.032 / 3}, // 1 of 3 steps
    {"water-spatial", "4096 molecules", 7.787 / 3},
};

void
planTable2(Planner& p)
{
    for (const SeqRow& row : kSeqRows)
        p.parallel({.app = row.app, .procs = 1});
}

void
renderTable2(Cells& c)
{
    core::printHeader(
        "Table 2: basic problem sizes and sequential times");
    std::printf("%-16s %-18s %14s %14s\n", "application", "basic size",
                "simulated (s)", "paper (s)");
    for (const SeqRow& row : kSeqRows)
        std::printf("%-16s %-18s %14.3f %14.3f\n", row.app,
                    row.sizeLabel,
                    c.nextRun().time * MachineConfig().nsPerCycle() / 1e9,
                    row.paperSeconds);
    std::printf("\n(paper times normalized to the number of "
                "steps/frames/passes this skeleton simulates)\n");
}

std::vector<int>
fig2Procs()
{
    return quick ? std::vector<int>{32, 128}
                 : std::vector<int>{32, 64, 96, 128};
}

void
planFig2(Planner& p)
{
    for (const auto& name : apps::originalApps())
        for (const int P : fig2Procs())
            p.speedup("", {.app = name, .procs = P});
}

void
renderFig2(Cells& c)
{
    core::printHeader("Figure 2: speedups at basic problem sizes");
    std::printf("%-16s", "application");
    for (const int P : fig2Procs())
        std::printf("   P=%-4d", P);
    std::printf("   eff@128\n");

    for (const auto& name : apps::originalApps()) {
        std::printf("%-16s", name.c_str());
        double eff_last = 0;
        for (std::size_t i = 0; i < fig2Procs().size(); ++i) {
            const core::Measurement& m = c.next();
            std::printf(" %8.1f", m.speedup());
            eff_last = m.efficiency();
        }
        std::printf("   %5.2f %s\n", eff_last,
                    eff_last >= core::kGoodEfficiency ? "(scales)"
                                                      : "");
    }
    std::printf("\n60%% parallel efficiency at 128 procs = speedup "
                "76.8 (the paper's 'scaling well' bar)\n");
}

void
planFig3(Planner& p)
{
    for (const auto& name : apps::originalApps())
        p.parallel({.app = name, .procs = 128,
                    .cfg = MachineConfig::origin2000(128)});
}

void
renderFig3(Cells& c)
{
    core::printHeader(
        "Figure 3: average 128-proc breakdown, basic problem sizes");
    for (const auto& name : apps::originalApps())
        core::printBreakdown(name, c.nextRun().breakdown());
}

struct Sweep {
    const char* app;
    std::vector<std::uint64_t> sizes;
    /// Machine-cache override (0 = default); Water-Nsquared's sweep
    /// runs on a ratio-preserving scaled cache per DESIGN.md.
    std::uint64_t cacheBytes = 0;
};

const std::vector<Sweep> kSweeps = {
    {"fft", {1u << 18, 1u << 20, 1u << 22}, 0},
    {"ocean", {514, 1026, 2050}, 0},
    {"radix", {1u << 20, 1u << 22, 1u << 24}, 0},
    {"barnes", {4096, 16384, 32768}, 0},
    {"water-nsq", {1024, 2048, 4096, 8192}, 512u << 10},
    {"water-spatial", {4096, 16384, 32768}, 0},
    {"raytrace", {64, 128, 256}, 0},
    {"volrend", {128, 256}, 0},
    {"shearwarp", {128, 192, 256}, 0},
    {"infer", {422}, 0},
    {"protein", {8, 16, 32}, 0},
};

std::vector<int>
fig4Procs()
{
    return quick ? std::vector<int>{128} : std::vector<int>{32, 64, 128};
}

void
planFig4(Planner& p)
{
    for (const Sweep& sw : kSweeps)
        for (const std::uint64_t size : sw.sizes)
            for (const int P : fig4Procs())
                p.speedup("", {.app = sw.app, .size = size, .procs = P,
                               .cacheBytes = sw.cacheBytes});
}

/// Fill `series` with efficiencies over `sizes`, read size by size.
void
readEfficiencies(Cells& c, const std::vector<std::uint64_t>& sizes,
                 std::vector<core::Series>& series)
{
    for (const std::uint64_t size : sizes) {
        for (core::Series& s : series) {
            s.xs.push_back(std::to_string(size));
            s.ys.push_back(c.next().efficiency());
        }
    }
}

void
renderFig4(Cells& c)
{
    core::printHeader("Figure 4: parallel efficiency vs problem size");
    for (const Sweep& sw : kSweeps) {
        std::vector<core::Series> series;
        for (const int P : fig4Procs())
            series.push_back({"P=" + std::to_string(P), {}, {}});
        readEfficiencies(c, sw.sizes, series);
        std::printf("\n-- %s (size unit: %s)%s --\n", sw.app,
                    apps::sizeUnit(sw.app).c_str(),
                    sw.cacheBytes ? " [scaled 512KB cache]" : "");
        core::printSeries(apps::sizeUnit(sw.app), series);
    }
    std::printf("\nDotted 60%% efficiency bar: 0.600\n");
}

struct Continuum {
    const char* title;
    const char* app;
    std::uint64_t small;
    std::uint64_t large;
};

const Continuum kContinua[] = {
    {"Figure 5: Water-Spatial per-proc breakdown", "water-spatial", 4096,
     32768},
    {"Figure 6: FFT per-proc breakdown", "fft", 1u << 20, 1u << 22},
    {"Figure 7: Shear-Warp per-proc breakdown", "shearwarp", 128, 256},
    {"Figure 8: Raytrace per-proc breakdown", "raytrace", 128, 256},
};

void
planFig5to8(Planner& p)
{
    // Each size also runs on one processor (capacity check).
    for (const Continuum& f : kContinua)
        for (const std::uint64_t size : {f.small, f.large})
            for (const int P : {128, 1})
                p.parallel({.app = f.app, .size = size, .procs = P});
}

void
renderFig5to8(Cells& c)
{
    for (const Continuum& f : kContinua) {
        core::printHeader(f.title);
        for (const std::uint64_t size : {f.small, f.large}) {
            char label[128];
            std::snprintf(label, sizeof label, "%s size=%llu, 128 procs",
                          f.app, static_cast<unsigned long long>(size));
            core::printPerProcBreakdown(label, c.nextRun(), 16);
            std::snprintf(label, sizeof label, "  uniprocessor size=%llu",
                          static_cast<unsigned long long>(size));
            core::printBreakdown(label, c.nextRun().breakdown());
        }
    }
}

struct Pair {
    const char* orig;
    const char* restr;
    std::vector<std::uint64_t> sizes;
    std::uint64_t cacheBytes = 0;
};

const std::vector<Pair> kPairs = {
    {"barnes", "barnes-spatial", {4096, 16384, 32768}, 0},
    {"water-nsq", "water-nsq-interchanged", {2048, 4096, 8192},
     512u << 10},
    {"shearwarp", "shearwarp-locality", {128, 192, 256}, 0},
    {"radix", "samplesort", {1u << 20, 1u << 22, 1u << 24}, 0},
    {"infer", "infer-static", {422}, 0},
};

std::vector<int>
fig9Procs()
{
    return quick ? std::vector<int>{128} : std::vector<int>{32, 128};
}

void
planFig9(Planner& p)
{
    // Shared sequential baseline: the original program.
    for (const Pair& pr : kPairs)
        for (const std::uint64_t size : pr.sizes)
            for (const int P : fig9Procs())
                for (const char* app : {pr.orig, pr.restr})
                    p.speedup("", {.app = app, .size = size, .procs = P,
                                   .cacheBytes = pr.cacheBytes,
                                   .seqApp = pr.orig});
}

void
renderFig9(Cells& c)
{
    core::printHeader(
        "Figure 9: original vs restructured, efficiency at 128 procs");
    for (const Pair& pr : kPairs) {
        std::vector<core::Series> series;
        for (const int P : fig9Procs()) {
            series.push_back({"orig P=" + std::to_string(P), {}, {}});
            series.push_back({"restr P=" + std::to_string(P), {}, {}});
        }
        readEfficiencies(c, pr.sizes, series);
        std::printf("\n-- %s vs %s --\n", pr.orig, pr.restr);
        core::printSeries(apps::sizeUnit(pr.orig), series);
    }
}

struct Variants {
    const char* title;
    std::vector<const char*> apps;
    std::uint64_t size;
    std::uint64_t cacheBytes;
};

const std::vector<Variants> kVariants = {
    {"Figure 10(a-c): Barnes tree-build variants, 32K bodies",
     {"barnes", "barnes-mergetree", "barnes-spatial"}, 32768, 0},
    {"Figure 10(d-e): Water-Nsquared loop order, 8K molecules "
     "[scaled 512KB cache]",
     {"water-nsq", "water-nsq-interchanged"}, 8192, 512u << 10},
};

void
planFig10(Planner& p)
{
    for (const Variants& v : kVariants)
        for (const char* app : v.apps)
            p.parallel({.app = app, .size = v.size, .procs = 128,
                        .cacheBytes = v.cacheBytes});
}

void
renderFig10(Cells& c)
{
    for (const Variants& v : kVariants) {
        core::printHeader(v.title);
        Cycles base_time = 0;
        for (const char* app : v.apps) {
            const RunResult& r = c.nextRun();
            if (base_time == 0)
                base_time = r.time;
            char label[96];
            std::snprintf(label, sizeof label, "%s (time=%.2fx orig)",
                          app, static_cast<double>(r.time) / base_time);
            core::printBreakdown(label, r.breakdown());
            core::printCounters(app, r.totals());
        }
    }
}

struct PlacementRow {
    const char* app;
    std::uint64_t size;
    const char* label;
    int paperManual, paperRr, paperRrMig;
};

const PlacementRow kPlacementRows[] = {
    {"fft", 1u << 22, "FFT 2^22", 55, 26, 25},
    {"radix", 1u << 24, "Radix 16M", 38, 24, 25},
    {"ocean", 2050, "Ocean 2050^2", 64, 34, 33},
};

const char* const kPlacementTags[] = {"manual", "rrobin", "rr+mig"};

void
planTable3(Planner& p)
{
    for (const PlacementRow& row : kPlacementRows) {
        for (int mode = 0; mode < 3; ++mode) {
            MachineConfig cfg;
            cfg.placement = mode == 0 ? Placement::Explicit
                                      : Placement::RoundRobin;
            cfg.pageMigration = mode == 2;
            p.speedup("", {.app = row.app, .size = row.size, .procs = 64,
                           .cfg = cfg, .tag = kPlacementTags[mode]});
        }
    }
}

void
renderTable3(Cells& c)
{
    core::printHeader(
        "Table 3: data distribution strategies, 64 processors");
    std::printf("%-14s %8s %8s %8s   (paper: %s)\n", "app", "manual",
                "rrobin", "rr+mig", "manual/rr/rr+mig");
    for (const PlacementRow& row : kPlacementRows) {
        double sp[3];
        for (double& s : sp)
            s = c.next().speedup();
        std::printf("%-14s %8.1f %8.1f %8.1f   (paper: %d/%d/%d)\n",
                    row.label, sp[0], sp[1], sp[2], row.paperManual,
                    row.paperRr, row.paperRrMig);
    }
}

struct PrefetchCase {
    const char* base;
    const char* pf;
    std::uint64_t size;
};

const PrefetchCase kPrefetchCases[] = {
    {"fft", "fft-prefetch", 1u << 20},
    {"fft", "fft-prefetch", 1u << 22},
    {"samplesort", "samplesort-prefetch", 1u << 22},
    {"samplesort", "samplesort-prefetch", 1u << 24},
    {"radix", "radix-prefetch", 1u << 22},
};

std::vector<int>
sec61Procs()
{
    return quick ? std::vector<int>{128} : std::vector<int>{32, 64, 128};
}

void
planSec61(Planner& p)
{
    for (const PrefetchCase& c : kPrefetchCases)
        for (const int P : sec61Procs())
            for (const char* app : {c.base, c.pf})
                p.speedup("", {.app = app, .size = c.size, .procs = P,
                               .seqApp = c.base});
}

/// Execution-time reduction of `b` over `a`, in percent.
double
gainPercent(const core::Measurement& a, const core::Measurement& b)
{
    return (static_cast<double>(a.parTime) - b.parTime) / a.parTime *
           100.0;
}

void
renderSec61(Cells& c)
{
    core::printHeader("Section 6.1: software prefetch of remote data");
    std::printf("%-14s %12s", "app", "size");
    for (const int P : sec61Procs())
        std::printf("    P=%-3d gain", P);
    std::printf("\n");
    for (const PrefetchCase& pc : kPrefetchCases) {
        std::printf("%-14s %12llu", pc.base,
                    static_cast<unsigned long long>(pc.size));
        for (std::size_t i = 0; i < sec61Procs().size(); ++i) {
            const core::Measurement& base = c.next();
            std::printf("    %+8.1f%%", gainPercent(base, c.next()));
        }
        std::printf("\n");
    }
    std::printf("\n(gain = execution-time reduction from prefetch)\n");
}

/// Microbenchmark: time per barrier episode over `iters` barriers.
double
barrierMicro(SyncKind kind, BarrierAlg alg, int procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.syncKind = kind;
    cfg.barrierAlg = alg;
    Machine m(cfg);
    const BarrierId bar = m.barrierCreate();
    const int iters = 100;
    RunResult r = m.run([bar, iters](Cpu& cpu) -> Task {
        for (int i = 0; i < iters; ++i) {
            cpu.busy(50);
            co_await cpu.barrier(bar);
        }
        co_return;
    });
    return static_cast<double>(r.time) / iters;
}

/// Microbenchmark: contended lock throughput (cycles per acquire).
double
lockMicro(SyncKind kind, int procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.syncKind = kind;
    Machine m(cfg);
    const LockId lk = m.lockCreate();
    const int iters = 50;
    RunResult r = m.run([lk, iters](Cpu& cpu) -> Task {
        for (int i = 0; i < iters; ++i) {
            co_await cpu.acquire(lk);
            cpu.busy(20);
            cpu.release(lk);
            cpu.busy(100);
            co_await cpu.checkpoint();
        }
        co_return;
    });
    return static_cast<double>(r.time) / (iters * procs);
}

const char* const kSyncApps[] = {"water-spatial", "ocean", "barnes"};

void
planSec63(Planner& p)
{
    for (const char* app : kSyncApps) {
        MachineConfig a;
        a.syncKind = SyncKind::LLSC;
        a.barrierAlg = BarrierAlg::Tournament;
        MachineConfig b;
        b.syncKind = SyncKind::FetchOp;
        b.barrierAlg = BarrierAlg::Centralized;
        p.speedup("", {.app = app, .procs = 128, .cfg = a,
                       .tag = "llsc-tournament"});
        p.speedup("", {.app = app, .procs = 128, .cfg = b,
                       .tag = "fetchop-central"});
    }
}

void
renderSec63(Cells& c)
{
    core::printHeader("Section 6.3 microbenchmarks");
    for (const int P : {32, 128}) {
        std::printf("P=%d\n", P);
        for (const SyncKind kind : {SyncKind::LLSC, SyncKind::FetchOp})
            for (const BarrierAlg alg :
                 {BarrierAlg::Tournament, BarrierAlg::Centralized})
                std::printf(
                    "  barrier %s/%-13s%8.0f cycles/episode\n",
                    kind == SyncKind::LLSC ? "LLSC" : "f&op",
                    alg == BarrierAlg::Tournament ? "tournament"
                                                  : "centralized",
                    barrierMicro(kind, alg, P));
        std::printf("  lock LLSC (ticket)        %8.0f cycles/acquire\n",
                    lockMicro(SyncKind::LLSC, P));
        std::printf("  lock f&op (ticket)        %8.0f cycles/acquire\n",
                    lockMicro(SyncKind::FetchOp, P));
    }

    core::printHeader(
        "Section 6.3: application-level effect (128 procs)");
    std::printf("%-16s %16s %16s %10s\n", "app", "LLSC+tournament",
                "f&op+central", "delta");
    for (const char* app : kSyncApps) {
        const core::Measurement& ra = c.next();
        const core::Measurement& rb = c.next();
        std::printf("%-16s %15.2fx %15.2fx %+9.1f%%\n", app,
                    ra.speedup(), rb.speedup(), gainPercent(ra, rb));
    }
    std::printf("\n(paper: wait time dominates; the primitive makes "
                "little application-level difference)\n");
}

MachineConfig
mapped(Mapping mapping, std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.mapping = mapping;
    cfg.mappingSeed = seed;
    return cfg;
}

const char*
mappingName(Mapping m)
{
    return m == Mapping::Linear         ? "linear"
           : m == Mapping::PairedRandom ? "paired-random"
                                        : "random";
}

void
planSec71(Planner& p)
{
    for (const int P : {64, 128})
        for (const Mapping m : {Mapping::Linear, Mapping::Random})
            p.speedup("P" + std::to_string(P),
                      {.app = "barnes", .size = 16384, .procs = P,
                       .cfg = mapped(m, p.seed), .tag = mappingName(m)});
    for (const int P : {64, 128})
        for (const Mapping m : {Mapping::Linear, Mapping::PairedRandom,
                                Mapping::Random})
            p.speedup("P" + std::to_string(P),
                      {.app = "ocean", .size = 2050, .procs = P,
                       .cfg = mapped(m, p.seed), .tag = mappingName(m)});
    for (const char* app : {"fft", "fft-nostagger"})
        for (const Mapping m : {Mapping::Linear, Mapping::Random})
            p.speedup("", {.app = app, .size = 1u << 20, .procs = 128,
                           .cfg = mapped(m, p.seed), .seqApp = "fft",
                           .tag = mappingName(m)});
}

void
renderSec71(Cells& c)
{
    core::printHeader("Section 7.1: process-to-topology mapping");
    std::printf("Barnes-Hut (16K bodies)\n");
    for (const int P : {64, 128}) {
        const double lin = c.next().speedup();
        std::printf("  P=%-3d linear %.1f  random %.1f  (paper 128p: "
                    "14.7 vs 8.5 at 16K)\n",
                    P, lin, c.next().speedup());
    }

    std::printf("\nOcean (2050x2050)\n");
    for (const int P : {64, 128}) {
        const double lin = c.next().speedup();
        const double prnd = c.next().speedup();
        std::printf("  P=%-3d near-neighbor %.1f  paired-random %.1f  "
                    "random %.1f\n",
                    P, lin, prnd, c.next().speedup());
    }

    std::printf("\nFFT (2^20 points, 128 procs)\n");
    for (const char* app : {"fft", "fft-nostagger"})
        for (const Mapping m : {Mapping::Linear, Mapping::Random})
            std::printf("  %-14s %-7s speedup %.1f\n", app, mappingName(m),
                        c.next().speedup());
    std::printf("\n(paper: unstaggered+linear is the bad case -- both "
                "node processors start transposing from one node)\n");
}

struct NodeCase {
    const char* app;
    std::uint64_t size;
    int procs;
};

const NodeCase kNodeCases[] = {
    {"samplesort", 1u << 24, 32}, {"samplesort", 1u << 24, 64},
    {"fft", 1u << 22, 32},        {"fft", 1u << 22, 64},
    {"radix", 1u << 24, 64},      {"ocean", 2050, 64},
    {"raytrace", 128, 64},
};

void
planSec72(Planner& p)
{
    for (const NodeCase& c : kNodeCases) {
        MachineConfig one;
        one.oneProcPerNode = true;
        const std::string scope = "P" + std::to_string(c.procs);
        p.speedup(scope, {.app = c.app, .size = c.size, .procs = c.procs,
                          .tag = "two-per-node"});
        p.speedup(scope, {.app = c.app, .size = c.size, .procs = c.procs,
                          .cfg = one, .tag = "one-per-node"});
    }
}

void
renderSec72(Cells& c)
{
    core::printHeader("Section 7.2: one vs two processors per node");
    std::printf("%-14s %10s %5s %10s %10s %8s\n", "app", "size", "P",
                "2/node", "1/node", "gain");
    for (const NodeCase& nc : kNodeCases) {
        const core::Measurement& r2 = c.next();
        const core::Measurement& r1 = c.next();
        std::printf("%-14s %10llu %5d %9.1fx %9.1fx %+7.1f%%\n", nc.app,
                    static_cast<unsigned long long>(nc.size), nc.procs,
                    r2.speedup(), r1.speedup(), gainPercent(r2, r1));
    }
    std::printf("\n(gain = execution-time reduction from one "
                "processor per node)\n");
}

const Cycles kMetaRouterCycles[] = {0, 24, 96};
const Cycles kHubOccupancies[] = {0, 10, 30};

void
planAblations(Planner& p)
{
    for (const char* app : {"fft", "fft-implicit"})
        p.speedup("implicit", {.app = app, .size = 1u << 20,
                               .procs = 128, .seqApp = "fft"});
    for (const Cycles extra : kMetaRouterCycles) {
        MachineConfig cfg;
        cfg.metaRouterCycles = extra;
        cfg.metaRouterOccupancy = extra == 0 ? 0 : 5;
        p.speedup("metarouter",
                  {.app = "fft", .size = 1u << 20, .procs = 128,
                   .cfg = cfg, .tag = "meta" + std::to_string(extra)});
    }
    for (const Cycles occ : kHubOccupancies) {
        MachineConfig cfg;
        cfg.hubOccupancy = occ;
        p.speedup("hub", {.app = "samplesort", .size = 1u << 24,
                          .procs = 64, .cfg = cfg,
                          .tag = "hub" + std::to_string(occ)});
    }
}

/// Microbenchmark: one writer invalidating `readers` sharers.
void
invalFanout()
{
    core::printHeader(
        "Ablation: invalidation fan-out (1 writer vs N readers)");
    for (const int readers : {1, 7, 31, 127}) {
        MachineConfig cfg;
        cfg.numProcs = 128;
        Machine m(cfg);
        const Addr a = m.alloc(4096);
        m.place(a, 4096, 0);
        const BarrierId bar = m.barrierCreate();
        RunResult r = m.run([=](Cpu& cpu) -> Task {
            if (cpu.id() > 0 && cpu.id() <= readers)
                cpu.read(a);
            co_await cpu.barrier(bar);
            if (cpu.id() == 0)
                cpu.write(a); // invalidates `readers` sharers
            co_return;
        });
        std::printf("  %3d sharers: writer stall %5llu cycles, "
                    "invals %llu\n",
                    readers,
                    static_cast<unsigned long long>(
                        r.procs[0].t.memStall),
                    static_cast<unsigned long long>(
                        r.totals().invalsSent));
    }
}

void
renderAblations(Cells& c)
{
    core::printHeader(
        "Section 5.1: FFT implicit transpose (tried; paper: no help)");
    for (const char* v : {"fft", "fft-implicit"})
        std::printf("  %-14s speedup %6.1f\n", v, c.next().speedup());

    core::printHeader("Ablation: metarouter penalty (FFT 2^20, 128p)");
    for (const Cycles extra : kMetaRouterCycles)
        std::printf("  metaRouterCycles=%-3llu speedup %6.1f\n",
                    static_cast<unsigned long long>(extra),
                    c.next().speedup());

    invalFanout();

    core::printHeader(
        "Ablation: Hub occupancy (Sample sort 16M keys, 64p)");
    for (const Cycles occ : kHubOccupancies)
        std::printf("  hubOccupancy=%-2llu speedup %6.1f\n",
                    static_cast<unsigned long long>(occ),
                    c.next().speedup());
}

struct Artifact {
    const char* id;
    void (*plan)(Planner&); ///< nullptr: microbenchmarks only
    void (*render)(Cells&);
};

/// Every artifact with its paper shape, in README's order.
const Artifact kArtifacts[] = {
    // Table 1: back-to-back memory latencies of the simulated machine, via
    // a pointer-chase microbenchmark, against the paper's Origin2000 row
    // (338 ns local, 656 ns remote clean, 892 ns remote dirty, ratios 2:1
    // and 3:1).
    {"table1_latency", nullptr, renderTable1},
    // Table 2: applications, basic problem sizes and sequential execution
    // times -- the simulator's uniprocessor times next to the paper's
    // measured times on a 195 MHz R10000. Sizes marked "(scaled)" are
    // reduced per DESIGN.md to keep simulation tractable.
    {"table2_seqtimes", planTable2, renderTable2},
    // Figure 2: speedups of all applications at their basic problem sizes
    // on 32/64/96/128 processors. Paper shape: every application except
    // Raytrace stops scaling beyond ~64 processors.
    {"fig2_basic_speedups", planFig2, renderFig2},
    // Figure 3: average Busy / Memory / Synchronization execution-time
    // breakdown of 128-processor runs at the basic problem sizes. Paper
    // shape: memory stall dominates most applications; synchronization
    // (wait time) dominates Water-Spatial.
    {"fig3_breakdown", planFig3, renderFig3},
    // Figure 4: parallel efficiency versus problem size for each
    // application, at 32/64/128 processors. Paper shapes: bigger problems
    // help Ocean, Water-Spatial, Volrend, Shear-Warp, Barnes (and FFT and
    // Radix at high processor counts); they eventually *hurt* Raytrace and
    // Water-Nsquared; only Ocean and Water-Spatial cross 60% at 128p on
    // reasonable sizes. Ocean and FFT show capacity superlinearity.
    {"fig4_problem_size", planFig4, renderFig4},
    // Figures 5-8: per-processor execution-time breakdown continua on 128
    // processors for a small and a large problem size, plus the
    // uniprocessor breakdown, for Water-Spatial (Fig 5, sync collapses with
    // size), FFT (Fig 6, capacity misses at small machines), Shear-Warp
    // (Fig 7, memory remains the bottleneck) and Raytrace (Fig 8, large
    // diffuse working set).
    {"fig5_to_8_breakdowns", planFig5to8, renderFig5to8},
    // Figure 9: parallel efficiency versus problem size, original versus
    // restructured application versions. Paper shapes: the restructurings
    // give large wins at 128 processors -- Barnes (Spatial tree build),
    // Water-Nsquared (loop interchange: 60% from 8K molecules), Shear-Warp
    // (cross-phase locality), Infer (static within-clique), Sample sort
    // (bounded near 50% by the double local sort but far above Radix).
    {"fig9_restructured", planFig9, renderFig9},
    // Figure 10: execution-time breakdowns of original vs restructured
    // versions on 128 processors, total time normalized to the original:
    // (a-c) Barnes original / MergeTree / Spatial -- communication drops,
    // some balance is lost, Spatial wins at scale; (d-e) Water-Nsquared
    // original / loop-interchanged -- remote capacity misses vanish.
    {"fig10_restructured_breakdown", planFig10, renderFig10},
    // Table 3: speedup under different data-distribution strategies on 64
    // processors for large FFT, Radix and Ocean problems: manual placement
    // vs round-robin vs round-robin + dynamic page migration. Paper shape:
    // manual placement far ahead; enabling migration does not help.
    {"table3_placement", planTable3, renderTable3},
    // Section 6.1: effect of software prefetching of remote data on FFT and
    // Sample sort. Paper shape: little at 32 processors, up to ~35% (FFT)
    // and ~20% (Sample sort) at 128 processors on larger problems; little
    // effect on irregular applications (shown via Radix's prefix phase
    // only).
    {"sec61_prefetch", planSec61, renderSec61},
    // Section 6.3: at-memory fetch&op versus LL-SC synchronization, with
    // centralized and tournament barriers. Paper shape: neither the
    // primitive nor the barrier algorithm changes application performance
    // much, because imbalance (wait time) dominates the operation cost;
    // microbenchmarks do show fetch&op and tournament advantages.
    {"sec63_sync", planSec63, renderSec63},
    // Section 7.1: impact of mapping processes to the network topology.
    // Paper shapes: linear beats random consistently for Barnes (more for
    // small problems); near-neighbor pair mapping matters for Ocean mainly
    // at 128p (metarouters); FFT *prefers* transpose orderings where the
    // two processes on a node do not start transposing from each other --
    // staggered ordering beats unstaggered, and with staggering the
    // mapping itself matters little. --seed picks the permutation for the
    // random and paired-random mappings.
    {"sec71_mapping", planSec71, renderSec71},
    // Section 7.2: one versus two processors per node (same processor
    // count, twice the nodes when one per node). Paper shape: small
    // difference when communication dominates; one-per-node consistently
    // wins when problem sizes are large and local capacity misses contend
    // with communication at the shared Hub/memory -- e.g. Sample sort at 32
    // procs with 16M keys ran ~40% better one-per-node.
    {"sec72_procs_per_node", planSec72, renderSec72},
    // Ablations of the machine-model design choices DESIGN.md calls out:
    //  - metarouter penalty: the paper's 64p experiments found metarouters
    //    *helped* FFT on large systems by spreading contention; we ablate
    //    the metarouter latency/occupancy on the 128p machine.
    //  - invalidation fan-out: cost of full-bit-vector invalidations as
    //    sharer counts grow.
    //  - Hub occupancy: the shared-Hub contention knob behind Section 7.2.
    // Each sweep has its own baseline, with its own first configuration.
    {"ablations", planAblations, renderAblations},
};
constexpr std::size_t kNumArtifacts = std::size(kArtifacts);

} // namespace

int
main(int argc, char** argv)
{
    int jobs = 1;
    std::string jsonFile;
    std::uint64_t seed = 1;
    std::vector<std::string> ids;
    std::string footer = "ids:\n";
    for (const Artifact& a : kArtifacts)
        footer += std::string("  ") + a.id + "\n";
    const core::cli::Command cmd{
        "ccnuma_paper",
        "regenerate the paper's tables and figures next to the "
        "paper-reported series",
        {{"ID", &ids, "artifacts to run (default: all)"}},
        {{"jobs=N", &jobs, "StudyRunner workers; 0 = one per host core"},
         {"json=FILE", &jsonFile, "dump every application run as JSON"},
         {"seed=N", &seed, "permutation of the random topology mappings"},
         {"quick", &quick, "trimmed machine-size sweeps"}},
        footer};
    if (const auto rc = core::cli::parse(cmd, argc, argv))
        return *rc;
    std::vector<bool> selected(kNumArtifacts, ids.empty());
    for (const std::string& id : ids) {
        std::size_t i = 0;
        while (i < kNumArtifacts && id != kArtifacts[i].id)
            ++i;
        if (i == kNumArtifacts)
            return core::cli::usageError(cmd, "unknown id '" + id + "'");
        selected[i] = true;
    }

    core::StudyPlan plan;
    std::vector<std::size_t> first(kNumArtifacts + 1, 0);
    for (std::size_t i = 0; i < kNumArtifacts; ++i) {
        first[i] = plan.size();
        if (selected[i] && kArtifacts[i].plan) {
            Planner p{plan, kArtifacts[i].id, seed};
            kArtifacts[i].plan(p);
        }
    }
    first[kNumArtifacts] = plan.size();

    core::StudyRunner runner({.jobs = jobs, .progress = true});
    const core::StudyResult res = runner.run(plan);
    std::fprintf(stderr, "%zu runs in %.1fs host wall-clock with %d jobs\n",
                 res.runs.size(), res.wallSeconds, res.jobs);

    for (std::size_t i = 0; i < kNumArtifacts; ++i) {
        if (!selected[i])
            continue;
        Cells cells{res.runs, first[i]};
        kArtifacts[i].render(cells);
        assert(cells.pos == first[i + 1] && "render reads every run");
        for (const core::RunOutcome* r : cells.failed)
            std::printf("FAILED %s: %s\n", r->name.c_str(),
                        r->error.c_str());
    }

    core::MetricsSink sink(jsonFile);
    res.emit(sink); // no-op without --json
    if (!sink.write()) {
        std::fprintf(stderr, "failed to write %s\n", jsonFile.c_str());
        return 1;
    }
    return res.failures() ? 1 : 0;
}
