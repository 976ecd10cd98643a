/**
 * @file
 * Scenario: "will my application scale to 128 processors?" -- the
 * paper's core question, for any application in the registry.
 *
 * Usage: scaling_study [flags] [app] [size]   (`--help` lists the flags)
 *   e.g. scaling_study barnes 16384
 *        scaling_study water-spatial 32768 --jobs=4
 *
 * The machine-size sweep runs on the parallel StudyRunner: --jobs=N
 * (0 = one worker per host core) simulates N grid cells concurrently,
 * with results aggregated in submission order and the shared
 * uniprocessor baseline simulated exactly once.
 *
 * With --trace=FILE the largest run is traced: FILE gets a
 * Chrome-trace JSON (chrome://tracing / Perfetto) and FILE.metrics.json
 * the epoch time-series, latency histograms and hot-line sharing
 * report. With --json=FILE the whole grid -- speedups, efficiencies,
 * breakdowns, engine timing -- is dumped via core::MetricsSink.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/cli.hh"
#include "core/metrics.hh"
#include "core/report.hh"
#include "core/study_runner.hh"
#include "obs/export.hh"

using namespace ccnuma;

int
main(int argc, char** argv)
try {
    std::string app = "water-spatial";
    std::uint64_t size = 0;
    int jobs = 1;
    std::string traceFile;
    std::string jsonFile;
    std::uint64_t seed = 1;
    std::uint64_t epochCycles = 0;
    // Every machine of the grid is `proto` at its own size.
    sim::MachineConfig proto;
    const core::cli::Command cmd{
        "scaling_study",
        "will this application scale to 128 processors?",
        {{"app", &app, "application (default water-spatial)"},
         {"size", &size, "problem size; 0 = the app's basic size"}},
        {{"jobs=N", &jobs, "StudyRunner workers; 0 = one per host core"},
         {"trace=FILE", &traceFile,
          "trace the largest run: FILE and FILE.metrics.json"},
         {"json=FILE", &jsonFile, "dump the whole grid as JSON"},
         {"seed=N", &seed, "topology-mapping seed (default 1)"},
         {"epoch-cycles=N", &epochCycles,
          "epoch length of the interval metrics; 0 = default"},
         {"machine", &proto, ""}}};
    if (const auto rc = core::cli::parse(cmd, argc, argv))
        return *rc;
    // --seed steers every randomized machine policy (only the
    // topology-mapping permutation today).
    proto.mappingSeed = seed;
    if (epochCycles)
        proto.trace.epochCycles = epochCycles;

    core::printHeader("scaling study: " + app);
    std::printf("problem size: %llu %s\n\n",
                static_cast<unsigned long long>(
                    size ? size : apps::basicSize(app)),
                apps::sizeUnit(app).c_str());

    const std::vector<int> sizes = {2, 8, 32, 64, 128};
    core::StudyPlan plan;
    for (const int P : sizes) {
        sim::MachineConfig cfg = proto;
        cfg.numProcs = P;
        if (!traceFile.empty() && P == sizes.back()) {
            // Trace the largest machine: that run is the one whose
            // scaling loss needs explaining.
            cfg.trace.events = true;
            cfg.trace.intervals = true;
            cfg.trace.sharing = true;
        }
        plan.add(app + " P=" + std::to_string(P), cfg,
                 [app, size] { return apps::makeApp(app, size); }, app);
    }

    core::StudyRunner runner({.jobs = jobs, .progress = true});
    const core::StudyResult res = runner.run(plan);

    std::printf("%6s %10s %8s %8s   breakdown\n", "procs", "speedup",
                "effcy", "scales?");
    for (const core::RunOutcome& r : res.runs) {
        if (!r.ok) {
            std::printf("%6d   run failed: %s\n", r.nprocs,
                        r.error.c_str());
            continue;
        }
        const core::Measurement& m = r.m;
        const auto b = m.par.breakdown();
        std::printf("%6d %10.1f %7.1f%% %8s   busy %.0f%% mem %.0f%% "
                    "sync %.0f%%\n",
                    r.nprocs, m.speedup(), m.efficiency() * 100,
                    m.efficiency() >= core::kGoodEfficiency ? "yes"
                                                            : "no",
                    b.busy * 100, b.mem * 100, b.sync * 100);
    }
    std::printf("\n%zu runs in %.1fs host wall-clock with %d jobs\n",
                res.runs.size(), res.wallSeconds, res.jobs);

    if (!jsonFile.empty()) {
        core::MetricsSink sink(jsonFile);
        sink.setMachine(proto);
        res.emit(sink);
        if (sink.write())
            std::printf("wrote %s\n", jsonFile.c_str());
    }

    const core::RunOutcome* largest =
        res.runs.empty() ? nullptr : &res.runs.back();
    if (!traceFile.empty() && largest && largest->ok &&
        largest->m.par.trace) {
        const obs::Trace& t = *largest->m.par.trace;
        core::printHeader("observability: " + app + " at " +
                          std::to_string(largest->nprocs) + " procs");
        core::printLatencyHistograms(t);
        core::printHotLines(t, 10);
        if (obs::writeChromeTraceFile(traceFile, t))
            std::printf("wrote %s (chrome://tracing / Perfetto)\n",
                        traceFile.c_str());
        const std::string metrics = traceFile + ".metrics.json";
        if (obs::writeMetricsJsonFile(metrics, t, &largest->m.par))
            std::printf("wrote %s\n", metrics.c_str());
    }

    const std::string restr = apps::restructuredVariant(app);
    if (!restr.empty()) {
        std::printf("\nHint: the paper's restructured variant of this "
                    "application is \"%s\";\ntry: scaling_study %s\n",
                    restr.c_str(), restr.c_str());
    }
    return res.failures() ? 1 : 0;
} catch (const std::exception& e) {
    // An unknown app's message lists the valid names.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
