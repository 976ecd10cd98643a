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
 */

#include <cstdio>
#include <string>

#include "apps/registry.hh"
#include "core/cli.hh"
#include "core/report.hh"
#include "core/study.hh"

using namespace ccnuma;

namespace {

void
runCase(const char* label, const sim::MachineConfig& cfg,
        const std::string& app, std::uint64_t size,
        core::SeqBaselineCache& cache)
{
    const auto m = core::measure(
        cfg, [&] { return apps::makeApp(app, size); }, &cache, app);
    const auto b = m.par.breakdown();
    std::printf("%-34s speedup %6.1f  busy %3.0f%% mem %3.0f%% sync "
                "%3.0f%%\n",
                label, m.speedup(), b.busy * 100, b.mem * 100,
                b.sync * 100);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
try {
    std::string app = "ocean";
    std::uint64_t size = 0;
    int procs = 64;
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
        {{"seed=N", &seed, "seed of the random topology mapping case"},
         {"machine", &base, ""}}};
    if (const auto rc = core::cli::parse(cmd, argc, argv))
        return *rc;

    core::printHeader("machine explorer: " + app + " on " +
                      std::to_string(procs) + " procs");
    core::SeqBaselineCache cache;
    base.numProcs = procs;
    runCase("baseline (manual placement)", base, app, size, cache);

    sim::MachineConfig rr = base;
    rr.placement = sim::Placement::RoundRobin;
    runCase("round-robin pages", rr, app, size, cache);

    sim::MachineConfig mig = rr;
    mig.pageMigration = true;
    runCase("round-robin + page migration", mig, app, size, cache);

    sim::MachineConfig ft = base;
    ft.placement = sim::Placement::FirstTouch;
    runCase("first-touch pages", ft, app, size, cache);

    sim::MachineConfig one = base;
    one.oneProcPerNode = true;
    runCase("one processor per node", one, app, size, cache);

    sim::MachineConfig rnd = base;
    rnd.mapping = sim::Mapping::Random;
    rnd.mappingSeed = seed;
    runCase("random topology mapping", rnd, app, size, cache);

    sim::MachineConfig small_cache = base;
    small_cache.cacheBytes = 512u << 10;
    runCase("512 KB caches (vs 4 MB)", small_cache, app, size, cache);

    sim::MachineConfig fop = base;
    fop.syncKind = sim::SyncKind::FetchOp;
    fop.barrierAlg = sim::BarrierAlg::Centralized;
    runCase("fetch&op centralized sync", fop, app, size, cache);

    sim::MachineConfig moesi = base;
    moesi.protocol.parse("moesi");
    runCase("MOESI (owner-forwarded sharing)", moesi, app, size, cache);

    sim::MachineConfig dragon = base;
    dragon.protocol.parse("dragon");
    runCase("Dragon (update-based writes)", dragon, app, size, cache);

    sim::MachineConfig coarse = base;
    coarse.dirFormat.parse("coarse:8");
    runCase("coarse-vector directory (K=8)", coarse, app, size, cache);

    sim::MachineConfig dirib = base;
    dirib.dirFormat.parse("ptr:4");
    runCase("limited-pointer directory (4 ptrs)", dirib, app, size,
            cache);

    return 0;
} catch (const std::exception& e) {
    // An unknown app's message lists the valid names.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}