/**
 * @file
 * Quickstart: simulate a 64-processor Origin2000-class machine running
 * the SPLASH-2 FFT, and report speedup and where the time goes.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Observability: pass --trace=fft.trace.json to also write a
 * Chrome-trace JSON (open in chrome://tracing / Perfetto) plus
 * fft.trace.json.metrics.json with epoch time-series, latency
 * histograms and the hot-line sharing report. `--help` lists the
 * other flags.
 */

#include <cstdio>
#include <string>

#include "apps/registry.hh"
#include "core/cli.hh"
#include "core/report.hh"
#include "core/study.hh"
#include "obs/export.hh"

using namespace ccnuma;

int
main(int argc, char** argv)
{
    // 1. Configure a machine: 64 processors, 2 per node, calibrated to
    //    the SGI Origin2000's latencies (Table 1 of the paper).
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(64);
    std::string trace_file;
    std::uint64_t seed = 1;
    std::uint64_t epoch_cycles = 0;
    const core::cli::Command cmd{
        "quickstart",
        "FFT (2^20 points) on a 64-processor Origin2000-class machine",
        {},
        {{"trace=FILE", &trace_file,
          "write a Chrome trace to FILE and metrics to FILE.metrics.json"},
         {"seed=N", &seed, "topology-mapping seed (default 1)"},
         {"epoch-cycles=N", &epoch_cycles,
          "epoch length of the interval metrics; 0 = default"},
         {"machine", &cfg, ""}}};
    if (const auto rc = core::cli::parse(cmd, argc, argv))
        return *rc;
    cfg.mappingSeed = seed;
    if (!trace_file.empty())
        cfg.trace.events = cfg.trace.intervals = cfg.trace.sharing = true;
    if (epoch_cycles)
        cfg.trace.epochCycles = epoch_cycles;

    // 2. Pick an application at its basic problem size (2^20 points).
    //    makeApp knows every app and variant in the study.
    core::printHeader("quickstart: FFT (2^20 points) on 64 processors");

    // 3. Measure: runs the same program on a 1-processor machine for
    //    the baseline, then on the parallel machine.
    core::SeqBaselineCache seq_cache;
    const core::Measurement m = core::measure(
        cfg, [] { return apps::makeApp("fft"); }, &seq_cache, "fft");

    std::printf("sequential time   %8.1f ms (simulated)\n",
                m.seqTime * cfg.nsPerCycle() / 1e6);
    std::printf("parallel time     %8.1f ms (simulated)\n",
                m.parTime * cfg.nsPerCycle() / 1e6);
    std::printf("speedup           %8.1f on %d processors\n",
                m.speedup(), cfg.numProcs);
    std::printf("parallel effcy    %8.1f %% (the paper's bar: 60%%)\n",
                m.efficiency() * 100);

    // 4. Where does the time go?
    core::printBreakdown("execution time breakdown", m.par.breakdown());
    core::printCounters("event counters (all procs)", m.par.totals());

    // 4b. With tracing on: export the run and summarize it.
    if (!trace_file.empty() && m.par.trace) {
        const obs::Trace& t = *m.par.trace;
        core::printLatencyHistograms(t);
        core::printHeader("hottest coherence lines");
        core::printHotLines(t, 10);
        if (obs::writeChromeTraceFile(trace_file, t))
            std::printf("\nwrote %s (open in chrome://tracing or "
                        "https://ui.perfetto.dev)\n",
                        trace_file.c_str());
        const std::string metrics = trace_file + ".metrics.json";
        if (obs::writeMetricsJsonFile(metrics, t, &m.par))
            std::printf("wrote %s (epoch time-series + histograms + "
                        "hot lines)\n",
                        metrics.c_str());
    }

    // 5. Same again with software prefetch in the transpose phases.
    const core::Measurement pf = core::measure(
        cfg, [] { return apps::makeApp("fft-prefetch"); }, &seq_cache,
        "fft");
    std::printf("\nwith prefetch     %8.1f ms  (%+.1f%%)\n",
                pf.parTime * cfg.nsPerCycle() / 1e6,
                (static_cast<double>(m.parTime) - pf.parTime) /
                    m.parTime * 100);
    return 0;
}
