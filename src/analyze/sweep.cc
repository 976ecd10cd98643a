#include "analyze/sweep.hh"

#include <algorithm>

#include "apps/registry.hh"
#include "core/metrics.hh"
#include "sim/machine.hh"

namespace ccnuma::analyze {

AppRaceResult
analyzeApp(const std::string& name, int procs, std::uint64_t size,
           DetectorOptions opt)
{
    return analyzeApp(name, sim::MachineConfig::origin2000(procs), size,
                      opt);
}

AppRaceResult
analyzeApp(const std::string& name, const sim::MachineConfig& cfg,
           std::uint64_t size, DetectorOptions opt)
{
    AppRaceResult out;
    out.app = name;
    out.size = size != 0 ? size : apps::goldenSize(name);

    sim::Machine m(cfg);
    const apps::AppPtr app = apps::makeApp(name, out.size);
    app->setup(m);

    RaceDetector det(cfg.numProcs, cfg.lineBytes, opt);
    m.attachSyncObserver(&det);
    const sim::RunResult r = m.run(app->program());

    out.time = r.time;
    out.races = det.races();
    out.stats = det.stats();
    return out;
}

std::vector<AppRaceResult>
analyzeAllApps(int procs, DetectorOptions opt)
{
    return analyzeAllApps(sim::MachineConfig::origin2000(procs), opt);
}

std::vector<AppRaceResult>
analyzeAllApps(const sim::MachineConfig& cfg, DetectorOptions opt)
{
    std::vector<AppRaceResult> out;
    const auto& names = apps::listApps();
    out.reserve(names.size());
    for (const std::string& name : names)
        out.push_back(analyzeApp(name, cfg, 0, opt));
    return out;
}

void
emitMetrics(const AppRaceResult& r, core::MetricsSink& sink)
{
    const std::string label = "races/" + r.app;
    const auto scalar = [&](const char* key, std::uint64_t v) {
        sink.addScalar(label, key, static_cast<double>(v));
    };
    scalar("memOps", r.stats.memOps);
    scalar("syncOps", r.stats.syncOps);
    scalar("vcJoins", r.stats.vcJoins);
    scalar("readEscalations", r.stats.readEscalations);
    scalar("stealEdges", r.stats.stealEdges);
    scalar("barrierEpisodes", r.stats.barrierEpisodes);
    scalar("locksetAlarms", r.stats.locksetAlarms);
    scalar("racesFound", r.stats.racesFound);
    scalar("shadowLocations", r.stats.shadowLocations);
    scalar("shadowBytes", r.stats.shadowBytes);
    scalar("runCycles", r.time);
}

check::StressOptions
raceStressOptions(std::uint64_t seed)
{
    check::StressOptions o;
    o.seed = seed;
    o.disciplined = true;
    // More and busier lock sections than the protocol-stress defaults:
    // the shared footprint is only reachable through them, and the
    // DropLockAcquire self-test needs enough cross-processor pairs.
    o.lockFrac = 0.15;
    o.numLocks = 4;
    return o;
}

RaceStressResult
raceExecute(const check::StressProgram& prog,
            const check::StressOptions& opt)
{
    RaceStressResult out;
    RaceDetector det(std::max(1, prog.procs()), opt.machine.lineBytes);
    out.report = check::execute(prog, opt, &det);
    out.races = det.races();
    out.stats = det.stats();
    // The SC oracle's verdict (a protocol bug) takes precedence; races
    // fill in only when the protocol itself held up.
    if (!out.report.failed && det.raced()) {
        out.report.failed = true;
        out.report.message = out.races.front().format();
    }
    return out;
}

check::ShrinkResult
shrinkRace(const check::StressProgram& prog,
           const check::StressOptions& opt, int maxRuns)
{
    return check::shrinkWith(
        prog,
        [&opt](const check::StressProgram& p) {
            return raceExecute(p, opt).report;
        },
        maxRuns);
}

} // namespace ccnuma::analyze
