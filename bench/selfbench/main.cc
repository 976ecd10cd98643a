/**
 * @file
 * `ccnuma_bench`: the simulator self-benchmark driver.
 *
 *   ccnuma_bench [--quick] [--json=FILE] [--repeat=N]
 *                [--baseline=FILE] [--min-ratio=R]
 *
 * Times the figure-2 application grid host-side and writes
 * BENCH_sim.json (override with --json=). With --baseline= the run is
 * also gated: exit 1 when aggregate ops/sec falls below
 * min-ratio x baseline (default 0.75, i.e. a >25% regression).
 */

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "bench/selfbench/selfbench.hh"
#include "core/cli.hh"
#include "core/metrics.hh"
#include "sim/config.hh"

#ifndef CCNUMA_GIT_DESCRIBE
#define CCNUMA_GIT_DESCRIBE "unknown"
#endif

using namespace ccnuma;
namespace sb = ccnuma::bench::selfbench;

namespace {

bool
parseDouble(const std::string& text, double& out)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    core::cli::Options opt = core::cli::parse(argc, argv);
    const bool quick = opt.takeSwitch("quick");

    std::string baseline;
    opt.takeFlag("baseline", baseline);

    double min_ratio = 0.75;
    std::string ratio_text;
    if (opt.takeFlag("min-ratio", ratio_text) &&
        !parseDouble(ratio_text, min_ratio)) {
        std::fprintf(stderr, "ccnuma_bench: bad --min-ratio=%s\n",
                     ratio_text.c_str());
        return 2;
    }

    int repeat = 1;
    std::string repeat_text;
    if (opt.takeFlag("repeat", repeat_text)) {
        std::uint64_t r = 0;
        if (!core::cli::parseU64(repeat_text, r) || r == 0) {
            std::fprintf(stderr, "ccnuma_bench: bad --repeat=%s\n",
                         repeat_text.c_str());
            return 2;
        }
        repeat = static_cast<int>(r);
    }

    // --protocol / --dir-format benchmark the simulator under a
    // non-default coherence machine (the gated baseline stays MESI).
    sim::MachineConfig machine = sim::MachineConfig::origin2000(2);
    core::cli::applyMachine(opt, machine);
    core::cli::warnUnknown(opt);

    const std::string json =
        opt.jsonFile.empty() ? "BENCH_sim.json" : opt.jsonFile;
    const std::string grid_name = quick ? "fig2-quick" : "fig2";

    std::printf("ccnuma_bench: simulator self-benchmark (%s grid, "
                "repeat=%d, build %s)\n",
                grid_name.c_str(), repeat, CCNUMA_GIT_DESCRIBE);

    const sb::GridResult res = sb::runGrid(
        sb::fig2Grid(quick), repeat, /*progress=*/true, &machine);

    std::printf("total: %llu simulated mem ops in %.1f ms host -> "
                "%.0f ops/sec aggregate\n",
                static_cast<unsigned long long>(res.totalMemOps),
                res.totalWallMs, res.aggOpsPerSec);

    core::MetricsSink sink(json);
    sink.setMachine(machine);
    sb::emit(sink, res, grid_name, CCNUMA_GIT_DESCRIBE);
    // Keep the perf trajectory: prior history entries in the existing
    // file survive the rewrite, with this run appended.
    char date[16] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr)
        std::strftime(date, sizeof date, "%Y-%m-%d", &tm_utc);
    const std::size_t runs_kept = sb::appendHistory(
        sink, json, res, grid_name, CCNUMA_GIT_DESCRIBE, date);
    std::printf("history: %zu prior run(s) kept, this run is "
                "history/%zu\n",
                runs_kept, runs_kept);
    if (!sink.write()) {
        std::fprintf(stderr, "ccnuma_bench: cannot write %s\n",
                     json.c_str());
        return 2;
    }
    std::printf("wrote %s\n", json.c_str());

    if (!baseline.empty()) {
        const sb::CompareResult cmp =
            sb::compareBaseline(baseline, res, min_ratio);
        std::printf("%s\n", cmp.message.c_str());
        if (!cmp.ok) {
            std::fprintf(stderr,
                         "ccnuma_bench: PERF REGRESSION vs %s\n",
                         baseline.c_str());
            return 1;
        }
    }
    return 0;
}
