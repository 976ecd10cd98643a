#include "bench/selfbench/selfbench.hh"

#include <chrono>
#include <cstdio>

#include "apps/registry.hh"
#include "check/json.hh"
#include "core/study.hh"
#include "sim/config.hh"

namespace ccnuma::bench::selfbench {

namespace {

/// Quick-mode problem size: the golden-metrics sizes — big enough to
/// exercise every protocol path, small enough that the whole quick
/// grid fits a CI smoke budget.
std::uint64_t
quickSize(const std::string& app)
{
    if (app.rfind("fft", 0) == 0)
        return 1u << 14;
    if (app.rfind("ocean", 0) == 0)
        return 130;
    if (app.rfind("radix", 0) == 0)
        return 1u << 16;
    if (app.rfind("barnes", 0) == 0)
        return 2048;
    if (app.rfind("water", 0) == 0)
        return 512;
    if (app.rfind("infer", 0) == 0)
        return 64;
    if (app.rfind("protein", 0) == 0)
        return 8;
    // raytrace / volrend / shearwarp image edge
    return 32;
}

} // namespace

std::vector<BenchCase>
fig2Grid(bool quick)
{
    const std::vector<int> procs = quick
                                       ? std::vector<int>{32, 128}
                                       : std::vector<int>{32, 64, 96, 128};
    std::vector<BenchCase> grid;
    for (const std::string& app : apps::originalApps())
        for (const int p : procs)
            grid.push_back(BenchCase{
                app, quick ? quickSize(app) : apps::basicSize(app), p});
    return grid;
}

GridResult
runGrid(const std::vector<BenchCase>& grid, int repeat, bool progress,
        const sim::MachineConfig* machine)
{
    using clock = std::chrono::steady_clock;
    if (repeat < 1)
        repeat = 1;
    GridResult out;
    for (const BenchCase& bc : grid) {
        sim::MachineConfig cfg =
            sim::MachineConfig::origin2000(bc.procs);
        if (machine) {
            cfg.protocol = machine->protocol;
            cfg.dirFormat = machine->dirFormat;
        }
        CaseResult cr;
        cr.bc = bc;
        double best_ms = 0.0;
        for (int r = 0; r < repeat; ++r) {
            // Only the app object is built outside the timed region:
            // core::runApp builds the Machine and runs App::setup inside
            // it, so machine construction and setup are timed with the
            // run (baseline.json was recorded this way).
            apps::AppPtr app = apps::makeApp(bc.app, bc.size);
            const clock::time_point t0 = clock::now();
            const sim::RunResult res = core::runApp(cfg, *app);
            const clock::time_point t1 = clock::now();
            const double ms =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            if (r == 0 || ms < best_ms)
                best_ms = ms;
            const sim::ProcCounters c = res.totals();
            cr.simMemOps = c.loads + c.stores;
            cr.simCycles = static_cast<std::uint64_t>(res.time);
        }
        cr.wallMs = best_ms;
        cr.opsPerSec = best_ms > 0.0
                           ? static_cast<double>(cr.simMemOps) /
                                 (best_ms / 1000.0)
                           : 0.0;
        out.totalMemOps += cr.simMemOps;
        out.totalWallMs += cr.wallMs;
        if (progress)
            std::printf("  %-16s P=%-4d size=%-8llu %10.1f ms "
                        "%12.0f ops/s\n",
                        bc.app.c_str(), bc.procs,
                        static_cast<unsigned long long>(bc.size),
                        cr.wallMs, cr.opsPerSec);
        out.cases.push_back(std::move(cr));
    }
    out.aggOpsPerSec = out.totalWallMs > 0.0
                           ? static_cast<double>(out.totalMemOps) /
                                 (out.totalWallMs / 1000.0)
                           : 0.0;
    return out;
}

void
emit(core::MetricsSink& sink, const GridResult& r,
     const std::string& gridName, const std::string& gitDescribe)
{
    for (const CaseResult& cr : r.cases) {
        const std::string label = cr.bc.label();
        sink.addText(label, "app", cr.bc.app);
        sink.addCount(label, "procs",
                      static_cast<std::uint64_t>(cr.bc.procs));
        sink.addCount(label, "size", cr.bc.size);
        sink.addCount(label, "simMemOps", cr.simMemOps);
        sink.addCount(label, "simCycles", cr.simCycles);
        sink.addScalar(label, "wallMs", cr.wallMs);
        sink.addScalar(label, "opsPerSec", cr.opsPerSec);
    }
    const std::string meta = "selfbench/meta";
    sink.addText(meta, "gitDescribe", gitDescribe);
    sink.addText(meta, "grid", gridName);
    sink.addCount(meta, "schemaVersion", 1);
    sink.addCount(meta, "totalMemOps", r.totalMemOps);
    sink.addScalar(meta, "totalWallMs", r.totalWallMs);
    sink.addScalar(meta, "aggOpsPerSec", r.aggOpsPerSec);
}

std::size_t
appendHistory(core::MetricsSink& sink, const std::string& priorPath,
              const GridResult& r, const std::string& gridName,
              const std::string& gitDescribe, const std::string& date)
{
    std::size_t kept = 0;
    const check::json::ParseResult pr =
        check::json::parseFile(priorPath);
    if (pr.ok) {
        const check::json::Value* runs = pr.root.find("runs");
        if (runs && runs->isArray()) {
            for (const check::json::Value& run : runs->arr) {
                const check::json::Value* label = run.find("label");
                if (!label || !label->isString() ||
                    label->str.rfind("history/", 0) != 0)
                    continue;
                // One entry per revision: re-benchmarking the same
                // checkout replaces its prior measurement instead of
                // growing the trajectory with duplicates.
                const check::json::Value* rev =
                    run.find("gitDescribe");
                if (rev && rev->isString() && rev->str == gitDescribe)
                    continue;
                const std::string to =
                    "history/" + std::to_string(kept);
                for (const auto& [key, v] : run.obj) {
                    if (key == "label")
                        continue;
                    if (v.isString())
                        sink.addText(to, key, v.str);
                    else if (v.isNumber() &&
                             v.raw.find_first_of(".eE") !=
                                 std::string::npos)
                        sink.addScalar(to, key, v.asDouble());
                    else if (v.isNumber())
                        sink.addCount(to, key, v.asU64());
                }
                ++kept;
            }
        }
    }
    const std::string to = "history/" + std::to_string(kept);
    sink.addText(to, "gitDescribe", gitDescribe);
    sink.addText(to, "date", date);
    sink.addText(to, "grid", gridName);
    sink.addCount(to, "totalMemOps", r.totalMemOps);
    sink.addScalar(to, "totalWallMs", r.totalWallMs);
    sink.addScalar(to, "aggOpsPerSec", r.aggOpsPerSec);
    return kept;
}

CompareResult
compareBaseline(const std::string& baselinePath,
                const GridResult& current, double minRatio)
{
    CompareResult out;
    const check::json::ParseResult pr =
        check::json::parseFile(baselinePath);
    if (!pr.ok) {
        out.message = "baseline " + baselinePath +
                      " unreadable: " + pr.error;
        return out;
    }
    const check::json::Value* runs = pr.root.find("runs");
    if (!runs || !runs->isArray()) {
        out.message = "baseline has no \"runs\" array";
        return out;
    }
    double base_agg = 0.0;
    bool found = false;
    for (const check::json::Value& run : runs->arr) {
        const check::json::Value* label = run.find("label");
        if (!label || label->str != "selfbench/meta")
            continue;
        const check::json::Value* agg = run.find("aggOpsPerSec");
        if (agg && agg->isNumber()) {
            base_agg = agg->asDouble();
            found = true;
        }
        break;
    }
    if (!found || base_agg <= 0.0) {
        out.message = "baseline has no selfbench/meta aggOpsPerSec";
        return out;
    }
    out.ratio = current.aggOpsPerSec / base_agg;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "ops/sec ratio vs baseline: %.3f (current %.0f / "
                  "baseline %.0f, floor %.2f)",
                  out.ratio, current.aggOpsPerSec, base_agg, minRatio);
    out.message = buf;
    out.ok = out.ratio >= minRatio;
    return out;
}

} // namespace ccnuma::bench::selfbench
