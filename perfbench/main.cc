/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload sim-hot|fig2-study|serve-mixed --seed N
 *             --seconds S --trace 0|1 --pins FILE [--spans FILE]
 *             [--revision R]
 *   perfbench --record-pins FILE
 *
 * Prints a host line, a human-readable summary and, as the last line,
 * one JSON object {"correct","attempted","failed","metrics"}: the
 * end-to-end metrics untraced, the per-layer metrics traced. Exits 1
 * when any simulated result differs from the pins. run.py builds this
 * program and is the command to use.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <set>
#include <string>
#include <thread>

#include "workloads.hh"

namespace perfbench {
namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

/// Every workload reports each of these (BENCHMARK.json end_to_end).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"pass_s", "s"},   {"sim_mops_per_s", "1/us"},
    {"peak_rss_mb", "MB"},    {"p95_ms", "ms"},
};

/// Every traced run reports each of these (BENCHMARK.json per_layer);
/// a layer the workload does not reach reads 0.
const MetricDef kPerLayer[] = {
    {"sim.build_s", "s"},
    {"sim.run_s", "s"},
    {"sim.ns_per_op", "ns"},
    {"sim.ns_per_op.water-nsq-p64", "ns"},
    {"sim.ns_per_op.ocean-p64", "ns"},
    {"sim.ns_per_op.fft-p64", "ns"},
    {"sim.ns_per_op.radix-p128", "ns"},
    {"sim.ns_per_op.raytrace-p64", "ns"},
    {"sim.cache.access_ns", "ns"},
    {"sim.memsys.access_ns", "ns"},
    {"sim.engine_ns_per_op", "ns"},
    {"sim.probe.accesses", "count"},
    {"sim.probe.cache_hits", "count"},
    {"sim.mem_ops", "count"},
    {"sim.cycles", "cycles"},
    {"sim.l2_hits", "count"},
    {"sim.miss_local", "count"},
    {"sim.miss_remote_clean", "count"},
    {"sim.miss_remote_dirty", "count"},
    {"sim.upgrades", "count"},
    {"sim.invals_sent", "count"},
    {"sim.writebacks", "count"},
    {"sim.lock_contended", "count"},
    {"sim.barriers", "count"},
    {"apps.make_s", "s"},
    {"apps.setup_s", "s"},
    {"apps.trace_parse_s", "s"},
    {"core.baselines_run", "count"},
    {"core.baseline_hits", "count"},
    {"core.pool_busy_frac", "fraction"},
    {"core.emit_s", "s"},
    {"core.wait_s", "s"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.trace_p50_ms", "ms"},
    {"serve.parse_us", "us"},
    {"serve.cache_hit_ratio", "fraction"},
    {"serve.served", "count"},
    {"serve.sims_run", "count"},
    {"serve.rejected", "count"},
    {"serve.expired", "count"},
    {"serve.gen_late_ms", "ms"},
    {"serve_p50_ms.low", "ms"},
    {"serve_p95_ms.low", "ms"},
    {"serve_p50_ms.high", "ms"},
    {"serve_p95_ms.high", "ms"},
    {"serve_max_rps", "1/s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sim-hot|fig2-study|serve-mixed --seed N --seconds S "
                 "--trace 0|1 --pins FILE [--spans FILE] [--revision R]\n"
                 "       perfbench --record-pins FILE\n",
                 why);
    return 2;
}

Outcome
runWorkload(const Options& opt, Pins& pins, Spans& spans)
{
    if (opt.workload == "sim-hot")
        return runSimHot(opt, pins, spans);
    if (opt.workload == "fig2-study")
        return runFig2Study(opt, pins, spans);
    return runServeMixed(opt, pins, spans);
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// Print the result line; false when a metric is missing or not finite.
bool
printResult(const Options& opt, const Outcome& o, bool correct)
{
    std::string metrics;
    bool ok = true;
    const auto put = [&](const char* name, const char* unit, double v) {
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n", name);
            ok = false;
            v = 0;
        }
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + name + "\": {\"value\": " +
                   number(v) + ", \"unit\": \"" + unit + "\"}";
    };
    if (opt.trace) {
        std::set<std::string> known;
        for (const MetricDef& d : kPerLayer) {
            put(d.name, d.unit, o.layers.get(d.name));
            known.insert(d.name);
        }
        for (const auto& [name, v] : o.layers.values())
            if (!known.count(name)) {
                std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                             name.c_str());
                ok = false;
            }
    } else {
        for (const MetricDef& d : kEndToEnd) {
            const Metric* m = nullptr;
            for (const Metric& x : o.metrics)
                if (x.name == d.name)
                    m = &x;
            if (!m || m->unit != d.unit) {
                std::fprintf(stderr, "perfbench: %s missing\n", d.name);
                ok = false;
                continue;
            }
            put(d.name, d.unit, m->value);
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct && ok ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed), metrics.c_str());
    return ok;
}

int
recordPins(const std::string& path)
{
    Pins pins;
    pins.startRecording();
    Spans spans;
    for (const char* w : {"sim-hot", "fig2-study", "serve-mixed"}) {
        Options opt;
        opt.workload = w;
        opt.seconds = 0;
        const Outcome o = runWorkload(opt, pins, spans);
        std::fprintf(stderr, "recorded %s: %llu operations, %llu failed\n",
                     w, static_cast<unsigned long long>(o.attempted),
                     static_cast<unsigned long long>(o.failed));
        if (o.failed)
            return 1;
    }
    return pins.write(path) ? 0 : 1;
}

int
run(int argc, char** argv)
{
    Options opt;
    std::string revision = "unknown";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--record-pins")
                return recordPins(v);
            if (a == "--workload") {
                opt.workload = v;
                haveWorkload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
                haveSeed = true;
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
                haveSeconds = opt.seconds > 0;
            } else if (a == "--trace") {
                opt.trace = v == "1";
                haveTrace = v == "0" || v == "1";
            } else if (a == "--pins") {
                opt.pinsPath = v;
            } else if (a == "--spans") {
                opt.spansPath = v;
            } else if (a == "--revision") {
                revision = v;
            } else {
                return usage(("unknown flag " + a).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace ||
        opt.pinsPath.empty())
        return usage("--workload, --seed, --seconds, --trace and --pins "
                     "are required");
    if (opt.workload != "sim-hot" && opt.workload != "fig2-study" &&
        opt.workload != "serve-mixed")
        return usage(("unknown workload " + opt.workload).c_str());
#ifndef __OPTIMIZE__
    return usage("refusing to measure an unoptimised build");
#endif

    Pins pins;
    std::string err;
    if (!pins.load(opt.pinsPath, err))
        return usage(("cannot read pins: " + err).c_str());

    // Identify the build with every result: numbers from different
    // hosts, compilers or build types are not comparable.
    std::printf("# host {\"build_type\": \"%s\", \"opt_flags\": \"%s\", "
                "\"compiler\": \"g++ %s\", \"nproc\": %u, "
                "\"revision\": \"%s\", \"workload\": \"%s\", "
                "\"seed\": %llu, \"trace\": %d}\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_OPT_FLAGS, __VERSION__,
                std::thread::hardware_concurrency(), revision.c_str(),
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0);

    Spans spans;
    const Outcome o = runWorkload(opt, pins, spans);
    for (const std::string& n : o.notes)
        std::printf("# %s\n", n.c_str());
    if (!pins.firstMismatch().empty())
        std::printf("# pin mismatch: %s\n", pins.firstMismatch().c_str());
    if (opt.trace && !opt.spansPath.empty() && !spans.write(opt.spansPath))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.spansPath.c_str());
    const bool correct = o.failed == 0;
    const bool complete = printResult(opt, o, correct);
    std::fflush(stdout);
    return correct && complete ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
