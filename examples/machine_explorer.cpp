/**
 * @file
 * Scenario: architecture what-ifs -- how do machine parameters (page
 * placement policy, processors per node, topology mapping, cache size)
 * change an application's performance? Exercises the simulator's
 * machine-configuration surface end to end.
 *
 * Usage: machine_explorer [flags] [app] [size] [procs]
 *   --seed controls the random topology-mapping case; `--help` lists
 *   the flags.
 *
 * The twelve variants run as one plan on the parallel StudyRunner:
 * --jobs=N (0 = one worker per host core) simulates N of them at once.
 * All share one uniprocessor baseline, keyed by the app and run on the
 * first variant's machine, and print in plan order, so the output does
 * not depend on --jobs.
 */

#include <cstdio>
#include <string>

#include "apps/registry.hh"
#include "core/cli.hh"
#include "core/report.hh"
#include "core/study_runner.hh"

using namespace ccnuma;

int
main(int argc, char** argv)
try {
    std::string app = "ocean";
    std::uint64_t size = 0;
    int procs = 64;
    int jobs = 1;
    std::uint64_t seed = 1;
    // --protocol / --dir-format reshape the baseline every variation
    // below starts from.
    sim::MachineConfig base; // origin2000(procs) once procs is known
    const core::cli::Command cmd{
        "machine_explorer",
        "how machine parameters change an application's performance",
        {{"app", &app, "application (default ocean)"},
         {"size", &size, "problem size; 0 = the app's basic size"},
         {"procs", &procs, "processors (default 64)"}},
        {{"jobs=N", &jobs, "StudyRunner workers; 0 = one per host core"},
         {"seed=N", &seed, "seed of the random topology mapping case"},
         {"machine", &base, ""}}};
    if (const auto rc = core::cli::parse(cmd, argc, argv))
        return *rc;

    core::printHeader("machine explorer: " + app + " on " +
                      std::to_string(procs) + " procs");
    // An unknown app or a bad size fails here, before any simulation.
    apps::makeApp(app, size);
    base.numProcs = procs;
    core::StudyPlan plan;
    const auto add = [&](const char* label, const sim::MachineConfig& c) {
        plan.add(label, c, [app, size] { return apps::makeApp(app, size); },
                 app);
    };
    add("baseline (manual placement)", base);

    sim::MachineConfig rr = base;
    rr.placement = sim::Placement::RoundRobin;
    add("round-robin pages", rr);

    sim::MachineConfig mig = rr;
    mig.pageMigration = true;
    add("round-robin + page migration", mig);

    sim::MachineConfig ft = base;
    ft.placement = sim::Placement::FirstTouch;
    add("first-touch pages", ft);

    sim::MachineConfig one = base;
    one.oneProcPerNode = true;
    add("one processor per node", one);

    sim::MachineConfig rnd = base;
    rnd.mapping = sim::Mapping::Random;
    rnd.mappingSeed = seed;
    add("random topology mapping", rnd);

    sim::MachineConfig small_cache = base;
    small_cache.cacheBytes = 512u << 10;
    add("512 KB caches (vs 4 MB)", small_cache);

    sim::MachineConfig fop = base;
    fop.syncKind = sim::SyncKind::FetchOp;
    fop.barrierAlg = sim::BarrierAlg::Centralized;
    add("fetch&op centralized sync", fop);

    sim::MachineConfig moesi = base;
    moesi.protocol.parse("moesi");
    add("MOESI (owner-forwarded sharing)", moesi);

    sim::MachineConfig dragon = base;
    dragon.protocol.parse("dragon");
    add("Dragon (update-based writes)", dragon);

    sim::MachineConfig coarse = base;
    coarse.dirFormat.parse("coarse:8");
    add("coarse-vector directory (K=8)", coarse);

    sim::MachineConfig dirib = base;
    dirib.dirFormat.parse("ptr:4");
    add("limited-pointer directory (4 ptrs)", dirib);

    const core::StudyResult res =
        core::StudyRunner({.jobs = jobs}).run(plan);
    for (const core::RunOutcome& r : res.runs) {
        if (!r.ok) {
            std::printf("%-34s run failed: %s\n", r.name.c_str(),
                        r.error.c_str());
            continue;
        }
        const auto b = r.m.par.breakdown();
        std::printf("%-34s speedup %6.1f  busy %3.0f%% mem %3.0f%% sync "
                    "%3.0f%%\n",
                    r.name.c_str(), r.m.speedup(), b.busy * 100,
                    b.mem * 100, b.sync * 100);
    }
    return res.failures() ? 1 : 0;
} catch (const std::exception& e) {
    // An unknown app's message lists the valid names.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}