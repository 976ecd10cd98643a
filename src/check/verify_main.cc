/**
 * @file
 * ccnuma_verify: command-line driver for the verification harness.
 *
 *   ccnuma_verify stress [--seed=N] [--seeds=K] [--procs=P] [--ops=N]
 *                        [--shrink] [--mutate]
 *       Run K consecutive randomized stress programs starting at seed
 *       N under the SC oracle. On failure, replays the seed to confirm
 *       bit-identical reproduction, then (with --shrink, the default
 *       for failures) prints a minimized witness. --mutate runs with
 *       the deliberately broken SkipInvalidation protocol and inverts
 *       the exit logic: success means the oracle caught the break.
 *
 *   ccnuma_verify golden [--procs=P] [--bless] [--out=FILE|--check=FILE]
 *       Recompute the golden-metrics snapshot for every registered
 *       app. --check diffs against a committed baseline (default
 *       tests/golden/metrics-v1.json); --bless rewrites it.
 *
 *   ccnuma_verify races [--app=NAME|--all] [--procs=P] [--seed=N]
 *                       [--seeds=K] [--ops=N] [--mutate] [--json=FILE]
 *       Happens-before race analysis (ccnuma::analyze). Default /
 *       --all: run every registered app at its golden size under the
 *       race detector and expect zero races; --app restricts to one.
 *       --mutate instead runs disciplined stress programs first clean
 *       (must be race-free) and then under the DropLockAcquire
 *       protocol mutation (must race), shrinking the racy program to a
 *       minimal witness — the detector's end-to-end self-test.
 *       --json dumps per-app detector statistics via core::MetricsSink.
 *
 *   ccnuma_verify diagnose [--app=NAME|--all] [--procs=P1,P2,..]
 *                          [--size=N] [--epoch-cycles=N] [--jobs=N]
 *                          [--json=FILE] [--html=FILE]
 *       Automated scaling-loss diagnosis (ccnuma::diagnose): run each
 *       app across the machine-size grid (default 1,8,32; the smallest
 *       is the reference) and print a ranked verdict — lock
 *       serialization vs barrier imbalance vs Hub contention vs data
 *       placement vs cache capacity — backed by the counters and
 *       latency histograms that say so. --json writes the verdicts as
 *       one deterministic JSON document; --html writes a
 *       self-contained dashboard (verdict cards, per-epoch stacked
 *       breakdown, miss-latency heatmap, hot-line table).
 *
 *   ccnuma_verify protocols [--seeds=K] [--procs=P] [--ops=N]
 *                           [--apps=A,B,..] [--diag-procs=P1,P2,..]
 *                           [--json=FILE]
 *       Sweep the full coherence cross-product — {mesi, moesi, dragon}
 *       x {fullbv, coarse:4, ptr:2} — and for every combination run
 *       K-seed randomized stress under the SC oracle, the all-apps
 *       oracle sweep, the all-apps race analysis, and a scaling
 *       diagnosis of the --apps subset. Prints a comparison grid and
 *       flags apps whose scaling verdict differs across combinations.
 *
 *   ccnuma_verify model [--procs=P1,P2,..] [--max-states=N]
 *                       [--no-symmetry] [--json=FILE]
 *                       [--mutate=skip-inval|drop-owned-writeback|
 *                        corrupt-moesi-table]
 *       Exhaustive Murphi-style model check (ccnuma::model): BFS-
 *       enumerate every reachable global state of one cache line —
 *       directory entry, per-processor line states, in-flight
 *       prefetch fills — through the real protocol engine, checking
 *       the single-writer / data-value / memory-currency / fan-out
 *       invariant battery at every transition, with symmetry
 *       reduction over processor permutation. The default sweeps the
 *       full {mesi,moesi,dragon} x {fullbv,coarse:4,ptr:2} matrix at
 *       P=2,3,4 and expects zero violations. --mutate inverts the
 *       exit logic: the deliberately corrupted protocol must be
 *       *caught* on every combination where it is expressible, each
 *       with a shortest replayable counterexample.
 *
 *   ccnuma_verify help  (also --help, -h)
 *       Print the full subcommand reference and exit 0.
 *
 * stress, races, diagnose, model and protocols-member runs all accept
 * --protocol=mesi|moesi|dragon and --dir-format=fullbv|coarse:K|ptr:N
 * (CCNUMA_PROTOCOL / CCNUMA_DIR) to pick the coherence machine;
 * golden intentionally does not: the committed baseline pins the
 * default MESI + full-bit-vector machine.
 *
 * Exit status: 0 = verified, 1 = verification failure, 2 = usage.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/sweep.hh"
#include "apps/registry.hh"
#include "check/golden.hh"
#include "check/oracle.hh"
#include "check/shrink.hh"
#include "check/stress.hh"
#include "core/cli.hh"
#include "core/metrics.hh"
#include "diagnose/diagnose.hh"
#include "diagnose/html.hh"
#include "model/checker.hh"
#include "sim/machine.hh"

namespace {

using namespace ccnuma;

constexpr const char* kUsage =
    "usage: ccnuma_verify <command> [flags]\n"
    "\n"
    "  stress    randomized programs under the sequential-consistency\n"
    "            oracle, with replay + witness shrinking on failure\n"
    "              [--seed=N] [--seeds=K] [--procs=P] [--ops=N]\n"
    "              [--shrink] [--mutate]\n"
    "  golden    recompute the per-app golden-metrics snapshot and\n"
    "            diff (or --bless) the committed baseline\n"
    "              [--procs=P] [--bless] [--out=FILE|--check=FILE]\n"
    "  races     happens-before race analysis over the registered\n"
    "            apps, or detector self-test with --mutate\n"
    "              [--app=NAME|--all] [--procs=P] [--seed=N]\n"
    "              [--seeds=K] [--ops=N] [--mutate] [--json=FILE]\n"
    "  diagnose  automated scaling-loss diagnosis: ranked verdict per\n"
    "            app (lock serialization / barrier imbalance / Hub\n"
    "            contention / data placement / capacity) from a\n"
    "            machine-size sweep\n"
    "              [--app=NAME|--all] [--procs=P1,P2,..] [--size=N]\n"
    "              [--epoch-cycles=N] [--jobs=N] [--json=FILE]\n"
    "              [--html=FILE]\n"
    "  protocols sweep the protocol x directory-format cross-product\n"
    "            ({mesi,moesi,dragon} x {fullbv,coarse:4,ptr:2}):\n"
    "            per combination, seeded stress + all-apps oracle\n"
    "            sweep + all-apps race analysis + scaling diagnosis of\n"
    "            the --apps subset, printed as a comparison grid\n"
    "              [--seeds=K] [--procs=P] [--ops=N] [--apps=A,B,..]\n"
    "              [--diag-procs=P1,P2,..] [--json=FILE]\n"
    "  model     exhaustive model check of one cache line: enumerate\n"
    "            every reachable global state through the real engine\n"
    "            and prove the coherence invariants, or catch a\n"
    "            --mutate corruption with a minimal replayable\n"
    "            counterexample; default sweeps all 9 protocol x\n"
    "            directory-format combos at P=2,3,4\n"
    "              [--procs=P1,P2,..] [--max-states=N] [--no-symmetry]\n"
    "              [--json=FILE] [--mutate=skip-inval|\n"
    "               drop-owned-writeback|corrupt-moesi-table]\n"
    "  help      print this reference (also --help, -h)\n"
    "\n"
    "stress/races/diagnose/model also take --protocol=mesi|moesi|dragon\n"
    "and --dir-format=fullbv|coarse:K|ptr:N (env CCNUMA_PROTOCOL /\n"
    "CCNUMA_DIR); golden always pins the default mesi+fullbv machine\n"
    "\n"
    "exit status: 0 = verified, 1 = verification failure, 2 = usage\n";

std::string
defaultGoldenPath()
{
#ifdef CCNUMA_GOLDEN_DIR
    return std::string(CCNUMA_GOLDEN_DIR) + "/metrics-v1.json";
#else
    return "tests/golden/metrics-v1.json";
#endif
}

/// The `kUsage` block for one subcommand: its summary line plus every
/// continuation/flag line, sliced out of the single source of truth so
/// the snippet can never drift from `help`. Unknown commands get the
/// full reference.
std::string
usageSnippet(const std::string& cmd)
{
    const std::string usage(kUsage);
    const std::string anchor = "\n  " + cmd + " ";
    const std::size_t hit = usage.find(anchor);
    if (hit == std::string::npos)
        return usage;
    std::string out = "usage:\n";
    std::size_t pos = hit + 1;
    while (pos < usage.size()) {
        std::size_t nl = usage.find('\n', pos);
        if (nl == std::string::npos)
            nl = usage.size();
        const std::string line = usage.substr(pos, nl - pos);
        // Continuation lines are indented deeper than the two-space
        // command column; the next command (or the blank separator)
        // ends the block.
        if (pos != hit + 1 && line.compare(0, 4, "    ") != 0)
            break;
        out += line + "\n";
        pos = nl + 1;
    }
    out += "run `ccnuma_verify help` for the full reference\n";
    return out;
}

/// Print `cmd`'s usage snippet and return the usage exit status.
/// Call sites that already diagnosed the specific problem funnel
/// through here so every flag error carries its remedy.
int
usageError(const std::string& cmd)
{
    std::fprintf(stderr, "%s", usageSnippet(cmd).c_str());
    return 2;
}

/// Strict end-of-parse check shared by every subcommand: any flag
/// left unconsumed, any malformed numeric value, and any stray
/// positional argument is an error (exit 2) accompanied by the
/// subcommand's usage snippet — never a warning that scrolls away.
bool
strictFinish(const core::cli::Options& opt, const std::string& cmd)
{
    bool ok = core::cli::warnUnknown(opt);
    for (std::size_t i = 1; i < opt.positional.size(); ++i) {
        std::fprintf(stderr, "unexpected argument '%s'\n",
                     opt.positional[i].c_str());
        ok = false;
    }
    if (!ok)
        std::fprintf(stderr, "%s", usageSnippet(cmd).c_str());
    return ok;
}

int
runStressCmd(core::cli::Options& opt)
{
    std::uint64_t seeds = 1;
    std::uint64_t procs = 8;
    std::uint64_t ops = 250;
    opt.takeU64("seeds", seeds);
    opt.takeU64("procs", procs);
    opt.takeU64("ops", ops);
    const bool shrinkWitness = opt.takeSwitch("shrink");
    const bool mutate = opt.takeSwitch("mutate");

    check::StressOptions base;
    core::cli::applyMachine(opt, base.machine);
    if (!strictFinish(opt, "stress"))
        return 2;
    base.seed = opt.seed;
    base.procs = static_cast<int>(procs);
    base.opsPerProc = static_cast<int>(ops);
    if (mutate) {
#ifdef CCNUMA_CHECK_MUTATE
        base.mutation = sim::CheckMutation::SkipInvalidation;
#else
        std::fprintf(stderr,
                     "mutation hooks not compiled in "
                     "(build with -DCCNUMA_CHECK_MUTATE=ON)\n");
        return 2;
#endif
    }

    std::uint64_t failures = 0;
    for (std::uint64_t i = 0; i < seeds; ++i) {
        check::StressOptions o = base;
        o.seed = base.seed + i;
        const check::StressReport rep = check::runStress(o);
        std::printf("seed %llu: %llu commits, %llu loads checked, "
                    "%llu validations, %s\n",
                    static_cast<unsigned long long>(o.seed),
                    static_cast<unsigned long long>(rep.commits),
                    static_cast<unsigned long long>(rep.loadsChecked),
                    static_cast<unsigned long long>(rep.validations),
                    rep.failed ? "FAILED" : "ok");
        if (!rep.failed)
            continue;
        ++failures;
        std::printf("  first violation (commit %llu): %s\n",
                    static_cast<unsigned long long>(rep.failCommit),
                    rep.message.c_str());
        const check::StressReport replay = check::runStress(o);
        std::printf("  replay: %s\n",
                    replay == rep ? "bit-identical"
                                  : "MISMATCH (non-deterministic!)");
        if (shrinkWitness || mutate) {
            const check::ShrinkResult sh =
                check::shrink(check::generate(o), o);
            std::printf("  shrunk witness: %llu ops (from %llu, "
                        "%d runs)\n",
                        static_cast<unsigned long long>(sh.opsAfter),
                        static_cast<unsigned long long>(sh.opsBefore),
                        sh.runs);
            std::printf("%s", check::formatWitness(sh.program).c_str());
            std::printf("  witness failure: %s\n",
                        sh.report.message.c_str());
        }
    }

    if (mutate) {
        // Self-test: a broken protocol MUST be detected.
        if (failures == seeds) {
            std::printf("mutation caught on %llu/%llu seed(s): the "
                        "oracle has teeth\n",
                        static_cast<unsigned long long>(failures),
                        static_cast<unsigned long long>(seeds));
            return 0;
        }
        std::fprintf(stderr,
                     "mutation UNDETECTED on %llu/%llu seed(s)\n",
                     static_cast<unsigned long long>(seeds - failures),
                     static_cast<unsigned long long>(seeds));
        return 1;
    }
    return failures == 0 ? 0 : 1;
}

int
runGoldenCmd(core::cli::Options& opt)
{
    std::uint64_t procs = 4;
    opt.takeU64("procs", procs);
    std::string outPath;
    std::string checkPath;
    const bool hasOut = opt.takeFlag("out", outPath);
    const bool hasCheck = opt.takeFlag("check", checkPath);
    const bool bless = opt.takeSwitch("bless");
    if (!strictFinish(opt, "golden"))
        return 2;
    if (hasOut && hasCheck) {
        std::fprintf(stderr, "--out and --check are exclusive\n");
        return usageError("golden");
    }

    const check::GoldenSnapshot current =
        check::computeGolden(static_cast<int>(procs));

    if (bless || hasOut) {
        const std::string path = hasOut ? outPath : defaultGoldenPath();
        std::string err;
        if (!check::writeGoldenFile(path, current, err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 1;
        }
        std::printf("blessed %zu app baselines -> %s\n",
                    current.entries.size(), path.c_str());
        return 0;
    }

    const std::string path = hasCheck ? checkPath : defaultGoldenPath();
    check::GoldenSnapshot baseline;
    std::string err;
    if (!check::loadGoldenFile(path, baseline, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }
    const std::vector<std::string> diffs =
        check::diffGolden(baseline, current);
    if (diffs.empty()) {
        std::printf("golden metrics match %s (%zu apps)\n", path.c_str(),
                    baseline.entries.size());
        return 0;
    }
    std::fprintf(stderr, "golden metrics diverge from %s:\n",
                 path.c_str());
    for (const std::string& d : diffs)
        std::fprintf(stderr, "  %s\n", d.c_str());
    std::fprintf(stderr,
                 "re-bless with `ccnuma_verify golden --bless` if "
                 "intentional\n");
    return 1;
}

void
printRaceApp(const analyze::AppRaceResult& r)
{
    std::printf("%-24s %9llu mem ops, %7llu sync ops, %6llu shadow "
                "locations, %s\n",
                r.app.c_str(),
                static_cast<unsigned long long>(r.stats.memOps),
                static_cast<unsigned long long>(r.stats.syncOps),
                static_cast<unsigned long long>(r.stats.shadowLocations),
                r.races.empty() ? "race-free" : "RACES");
    for (const analyze::Race& race : r.races)
        std::printf("  %s\n", race.format().c_str());
}

int
runRaceMutateCmd(std::uint64_t seed0, std::uint64_t seeds,
                 std::uint64_t procs, std::uint64_t ops,
                 const sim::MachineConfig& machine)
{
#ifndef CCNUMA_CHECK_MUTATE
    (void)seed0;
    (void)seeds;
    (void)procs;
    (void)ops;
    (void)machine;
    std::fprintf(stderr, "mutation hooks not compiled in "
                         "(build with -DCCNUMA_CHECK_MUTATE=ON)\n");
    return 2;
#else
    std::uint64_t undetected = 0;
    for (std::uint64_t i = 0; i < seeds; ++i) {
        check::StressOptions o = analyze::raceStressOptions(seed0 + i);
        o.procs = static_cast<int>(procs);
        o.opsPerProc = static_cast<int>(ops);
        o.machine.protocol = machine.protocol;
        o.machine.dirFormat = machine.dirFormat;
        const check::StressProgram prog = check::generate(o);

        // Clean run first: a disciplined program must analyze race-free
        // (otherwise the detector has false positives and a detection
        // below would prove nothing).
        const analyze::RaceStressResult clean =
            analyze::raceExecute(prog, o);
        if (clean.report.failed) {
            std::fprintf(stderr,
                         "seed %llu: FALSE POSITIVE on the "
                         "unmutated program: %s\n",
                         static_cast<unsigned long long>(o.seed),
                         clean.report.message.c_str());
            ++undetected;
            continue;
        }

        o.mutation = sim::CheckMutation::DropLockAcquire;
        const analyze::RaceStressResult broken =
            analyze::raceExecute(prog, o);
        if (!broken.report.failed) {
            std::fprintf(stderr,
                         "seed %llu: DropLockAcquire UNDETECTED\n",
                         static_cast<unsigned long long>(o.seed));
            ++undetected;
            continue;
        }
        const check::ShrinkResult sh = analyze::shrinkRace(prog, o);
        std::printf("seed %llu: mutation caught (%llu races); shrunk "
                    "witness %llu ops (from %llu, %d runs)\n",
                    static_cast<unsigned long long>(o.seed),
                    static_cast<unsigned long long>(
                        broken.stats.racesFound),
                    static_cast<unsigned long long>(sh.opsAfter),
                    static_cast<unsigned long long>(sh.opsBefore),
                    sh.runs);
        std::printf("%s", check::formatWitness(sh.program).c_str());
        std::printf("  witness race: %s\n",
                    sh.report.message.c_str());
    }
    if (undetected == 0) {
        std::printf("race detector self-test passed on %llu seed(s)\n",
                    static_cast<unsigned long long>(seeds));
        return 0;
    }
    return 1;
#endif
}

int
runRacesCmd(core::cli::Options& opt)
{
    std::uint64_t procs = 4;
    std::uint64_t seeds = 1;
    std::uint64_t ops = 250;
    opt.takeU64("procs", procs);
    opt.takeU64("seeds", seeds);
    opt.takeU64("ops", ops);
    std::string appName;
    const bool hasApp = opt.takeFlag("app", appName);
    const bool all = opt.takeSwitch("all");
    const bool mutate = opt.takeSwitch("mutate");
    sim::MachineConfig machine =
        sim::MachineConfig::origin2000(static_cast<int>(procs));
    core::cli::applyMachine(opt, machine);
    if (!strictFinish(opt, "races"))
        return 2;
    if (hasApp && all) {
        std::fprintf(stderr, "--app and --all are exclusive\n");
        return usageError("races");
    }

    if (mutate)
        return runRaceMutateCmd(opt.seed, seeds, procs, ops, machine);

    core::MetricsSink sink(opt.jsonFile);
    sink.setMachine(machine);
    std::vector<analyze::AppRaceResult> results;
    if (hasApp) {
        try {
            results.push_back(analyze::analyzeApp(appName, machine));
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    } else {
        results = analyze::analyzeAllApps(machine);
    }

    std::uint64_t racy = 0;
    for (const analyze::AppRaceResult& r : results) {
        printRaceApp(r);
        analyze::emitMetrics(r, sink);
        if (!r.races.empty())
            ++racy;
    }
    if (!sink.write())
        std::fprintf(stderr, "failed to write --json file\n");
    if (racy == 0) {
        std::printf("%zu app(s) race-free\n", results.size());
        return 0;
    }
    std::fprintf(stderr, "%llu/%zu app(s) RACY\n",
                 static_cast<unsigned long long>(racy), results.size());
    return 1;
}

void
printDiagnosis(const diagnose::AppDiagnosis& d)
{
    if (!d.ok) {
        std::printf("%-24s FAILED: %s\n", d.app.c_str(),
                    d.error.c_str());
        return;
    }
    std::printf("%-24s %s\n", d.app.c_str(), d.verdict.c_str());
    for (const diagnose::CauseScore& c : d.ranked) {
        if (c.lostCycles == 0 && c.share == 0)
            continue;
        std::printf("  %-20s %5.1f%%  %s\n",
                    diagnose::causeTitle(c.cause), c.share * 100,
                    c.evidence.empty() ? "" : c.evidence[0].c_str());
    }
}

int
runDiagnoseCmd(core::cli::Options& opt)
{
    diagnose::DiagnoseOptions dopt;
    dopt.jobs = opt.jobs;
    dopt.epochCycles = opt.epochCycles;
    std::string procsList;
    if (opt.takeFlag("procs", procsList)) {
        std::vector<std::uint64_t> grid;
        if (!core::cli::parseU64List(procsList, grid)) {
            std::fprintf(stderr, "malformed --procs=%s "
                                 "(want e.g. --procs=1,8,32)\n",
                         procsList.c_str());
            return usageError("diagnose");
        }
        dopt.procs.clear();
        for (std::uint64_t p : grid)
            dopt.procs.push_back(static_cast<int>(p));
    }
    opt.takeU64("size", dopt.size);
    std::string appName;
    const bool hasApp = opt.takeFlag("app", appName);
    const bool all = opt.takeSwitch("all");
    std::string htmlPath;
    const bool hasHtml = opt.takeFlag("html", htmlPath);
    sim::MachineConfig machine = sim::MachineConfig::origin2000(2);
    core::cli::applyMachine(opt, machine);
    dopt.protocol = machine.protocol;
    dopt.dirFormat = machine.dirFormat;
    if (!strictFinish(opt, "diagnose"))
        return 2;
    if (hasApp && all) {
        std::fprintf(stderr, "--app and --all are exclusive\n");
        return usageError("diagnose");
    }

    std::vector<diagnose::AppDiagnosis> results;
    if (hasApp) {
        try {
            results.push_back(diagnose::diagnoseApp(appName, dopt));
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    } else {
        dopt.progress = true;
        results = diagnose::diagnoseAllApps(dopt);
    }

    std::uint64_t failed = 0;
    core::MetricsSink sink(opt.jsonFile);
    sink.setMachine(machine);
    for (const diagnose::AppDiagnosis& d : results) {
        printDiagnosis(d);
        diagnose::emitMetrics(d, sink);
        if (!d.ok)
            ++failed;
    }
    if (!opt.jsonFile.empty() &&
        !diagnose::writeDiagnoseJsonFile(opt.jsonFile, results)) {
        std::fprintf(stderr, "failed to write %s\n",
                     opt.jsonFile.c_str());
        return 1;
    }
    if (!opt.jsonFile.empty())
        std::printf("wrote %s\n", opt.jsonFile.c_str());
    if (hasHtml) {
        if (!diagnose::writeDashboardFile(htmlPath, results)) {
            std::fprintf(stderr, "failed to write %s\n",
                         htmlPath.c_str());
            return 1;
        }
        std::printf("wrote %s (self-contained dashboard)\n",
                    htmlPath.c_str());
    }
    if (failed) {
        std::fprintf(stderr, "%llu app(s) failed to diagnose\n",
                     static_cast<unsigned long long>(failed));
        return 1;
    }
    return 0;
}

// ---- protocols: the coherence cross-product comparison grid ----

/// One protocol x directory-format combination's verification record.
struct ComboResult {
    std::string proto;
    std::string dir;
    std::uint64_t stressFailures = 0; ///< Seeds whose oracle fired.
    std::uint64_t oracleBadApps = 0;  ///< Apps with SC violations.
    std::uint64_t racyApps = 0;       ///< Apps with reported races.
    /// Diagnosed app -> compact verdict ("scales/<cause>" form),
    /// keyed in --apps order.
    std::vector<std::string> verdicts;

    std::string label() const { return proto + "+" + dir; }
    bool clean() const
    {
        return stressFailures == 0 && oracleBadApps == 0 &&
               racyApps == 0;
    }
};

/// Every registered app under the SC oracle at the appsweep shape
/// (4 procs, 256 KB caches, 1K-commit validate cadence). Returns the
/// number of apps with violations and appends their names + first
/// violation to `bad`.
std::uint64_t
oracleSweep(const sim::MachineConfig& combo,
            std::vector<std::string>& bad)
{
    std::uint64_t failures = 0;
    for (const std::string& name : apps::listApps()) {
        sim::MachineConfig cfg = sim::MachineConfig::origin2000(4);
        cfg.cacheBytes = 256u << 10;
        cfg.check.validateEvery = 1024;
        cfg.protocol = combo.protocol;
        cfg.dirFormat = combo.dirFormat;
        sim::Machine m(cfg);
        const apps::AppPtr app =
            apps::makeApp(name, check::goldenSize(name));
        app->setup(m);
        check::ScOracle oracle(m.mem());
        m.mem().attachCommitObserver(&oracle);
        m.run(app->program());
        std::string what;
        if (oracle.failed())
            what = oracle.violations().front().what;
        else if (!m.mem().validateCoherence().empty())
            what = m.mem().validateCoherence().front();
        if (what.empty())
            continue;
        ++failures;
        bad.push_back(name + ": " + what);
    }
    return failures;
}

/// Compact one-cell verdict for the comparison grid.
std::string
shortVerdict(const diagnose::AppDiagnosis& d)
{
    if (!d.ok)
        return "FAILED";
    std::string cause = d.ranked.empty()
                            ? "none"
                            : diagnose::causeTitle(
                                  d.ranked.front().cause);
    for (char& ch : cause)
        if (ch == ' ')
            ch = '-';
    return std::string(d.scalesWell ? "scales" : "poor") + "/" + cause;
}

int
runProtocolsCmd(core::cli::Options& opt)
{
    std::uint64_t seeds = 3;
    std::uint64_t procs = 8;
    std::uint64_t ops = 150;
    opt.takeU64("seeds", seeds);
    opt.takeU64("procs", procs);
    opt.takeU64("ops", ops);

    std::vector<std::string> diagApps = {"fft", "ocean", "radix"};
    std::string appsList;
    if (opt.takeFlag("apps", appsList)) {
        diagApps.clear();
        std::string cur;
        for (const char ch : appsList + ",") {
            if (ch != ',') {
                cur += ch;
                continue;
            }
            if (!cur.empty())
                diagApps.push_back(cur);
            cur.clear();
        }
    }

    std::vector<int> diagProcs = {1, 8, 32};
    std::string diagProcsList;
    if (opt.takeFlag("diag-procs", diagProcsList)) {
        std::vector<std::uint64_t> grid;
        if (!core::cli::parseU64List(diagProcsList, grid)) {
            std::fprintf(stderr,
                         "malformed --diag-procs=%s "
                         "(want e.g. --diag-procs=1,8,32)\n",
                         diagProcsList.c_str());
            return usageError("protocols");
        }
        diagProcs.clear();
        for (std::uint64_t p : grid)
            diagProcs.push_back(static_cast<int>(p));
    }
    if (!strictFinish(opt, "protocols"))
        return 2;

    const std::vector<std::string> protoNames = {"mesi", "moesi",
                                                 "dragon"};
    const std::vector<std::string> dirNames = {"fullbv", "coarse:4",
                                               "ptr:2"};

    core::MetricsSink sink(opt.jsonFile);
    std::vector<ComboResult> combos;
    for (const std::string& pn : protoNames) {
        for (const std::string& dn : dirNames) {
            sim::MachineConfig machine =
                sim::MachineConfig::origin2000(
                    static_cast<int>(procs));
            if (!machine.protocol.parse(pn) ||
                !machine.dirFormat.parse(dn)) {
                std::fprintf(stderr, "internal: bad combo %s+%s\n",
                             pn.c_str(), dn.c_str());
                return 2;
            }
            ComboResult cr;
            cr.proto = pn;
            cr.dir = dn;
            std::printf("== %s ==\n", cr.label().c_str());

            // 1. Randomized stress under the SC oracle.
            for (std::uint64_t i = 0; i < seeds; ++i) {
                check::StressOptions o;
                o.seed = opt.seed + i;
                o.procs = static_cast<int>(procs);
                o.opsPerProc = static_cast<int>(ops);
                o.machine.protocol = machine.protocol;
                o.machine.dirFormat = machine.dirFormat;
                const check::StressReport rep = check::runStress(o);
                if (!rep.failed)
                    continue;
                ++cr.stressFailures;
                std::printf("  stress seed %llu FAILED: %s\n",
                            static_cast<unsigned long long>(o.seed),
                            rep.message.c_str());
                const check::ShrinkResult sh =
                    check::shrink(check::generate(o), o);
                std::printf("  shrunk witness: %llu ops\n%s",
                            static_cast<unsigned long long>(
                                sh.opsAfter),
                            check::formatWitness(sh.program).c_str());
            }

            // 2. Every registered app under the SC oracle.
            std::vector<std::string> oracleBad;
            cr.oracleBadApps = oracleSweep(machine, oracleBad);
            for (const std::string& b : oracleBad)
                std::printf("  oracle: %s\n", b.c_str());

            // 3. Every registered app under the race analyzer.
            sim::MachineConfig raceCfg =
                sim::MachineConfig::origin2000(4);
            raceCfg.protocol = machine.protocol;
            raceCfg.dirFormat = machine.dirFormat;
            for (const analyze::AppRaceResult& r :
                 analyze::analyzeAllApps(raceCfg)) {
                if (r.races.empty())
                    continue;
                ++cr.racyApps;
                std::printf("  races: %s: %s\n", r.app.c_str(),
                            r.races.front().format().c_str());
            }

            // 4. Scaling diagnosis of the --apps subset.
            diagnose::DiagnoseOptions dopt;
            dopt.procs = diagProcs;
            dopt.jobs = opt.jobs;
            dopt.protocol = machine.protocol;
            dopt.dirFormat = machine.dirFormat;
            for (const std::string& app : diagApps) {
                try {
                    const diagnose::AppDiagnosis d =
                        diagnose::diagnoseApp(app, dopt);
                    cr.verdicts.push_back(shortVerdict(d));
                } catch (const std::invalid_argument& e) {
                    std::fprintf(stderr, "error: %s\n", e.what());
                    return 2;
                }
            }

            std::printf("  stress %llu/%llu ok, oracle %zu/%zu "
                        "clean, races %zu/%zu free\n",
                        static_cast<unsigned long long>(
                            seeds - cr.stressFailures),
                        static_cast<unsigned long long>(seeds),
                        apps::listApps().size() -
                            static_cast<std::size_t>(
                                cr.oracleBadApps),
                        apps::listApps().size(),
                        apps::listApps().size() -
                            static_cast<std::size_t>(cr.racyApps),
                        apps::listApps().size());

            const std::string label =
                "protocols/" + cr.label();
            sink.addText(label, "protocol", pn);
            sink.addText(label, "dirFormat", dn);
            sink.addCount(label, "stressFailures",
                          cr.stressFailures);
            sink.addCount(label, "oracleBadApps", cr.oracleBadApps);
            sink.addCount(label, "racyApps", cr.racyApps);
            for (std::size_t a = 0; a < diagApps.size(); ++a)
                sink.addText(label, "verdict:" + diagApps[a],
                             cr.verdicts[a]);
            combos.push_back(std::move(cr));
        }
    }

    // The comparison grid: one row per combo, one verdict column per
    // diagnosed app.
    std::printf("\n%-16s %-8s %-8s %-8s", "combo", "stress",
                "oracle", "races");
    for (const std::string& app : diagApps)
        std::printf(" %-22s", app.c_str());
    std::printf("\n");
    for (const ComboResult& cr : combos) {
        std::printf("%-16s %-8s %-8s %-8s", cr.label().c_str(),
                    cr.stressFailures ? "FAIL" : "ok",
                    cr.oracleBadApps ? "FAIL" : "ok",
                    cr.racyApps ? "FAIL" : "ok");
        for (const std::string& v : cr.verdicts)
            std::printf(" %-22s", v.c_str());
        std::printf("\n");
    }

    // Which apps change their scaling verdict when the coherence
    // machine changes? That delta is the point of the sweep.
    std::uint64_t deltas = 0;
    for (std::size_t a = 0; a < diagApps.size(); ++a) {
        bool differs = false;
        for (const ComboResult& cr : combos)
            if (cr.verdicts[a] != combos.front().verdicts[a])
                differs = true;
        if (!differs)
            continue;
        ++deltas;
        std::printf("verdict delta: %-16s", diagApps[a].c_str());
        for (const ComboResult& cr : combos)
            if (cr.verdicts[a] != combos.front().verdicts[a])
                std::printf(" %s=%s", cr.label().c_str(),
                            cr.verdicts[a].c_str());
        std::printf(" (vs %s=%s)\n",
                    combos.front().label().c_str(),
                    combos.front().verdicts[a].c_str());
    }
    if (deltas == 0)
        std::printf("no scaling-verdict deltas across %zu "
                    "combinations\n",
                    combos.size());
    sink.addCount("protocols/meta", "combos", combos.size());
    sink.addCount("protocols/meta", "verdictDeltas", deltas);
    if (!sink.write())
        std::fprintf(stderr, "failed to write --json file\n");

    std::uint64_t badCombos = 0;
    for (const ComboResult& cr : combos)
        if (!cr.clean())
            ++badCombos;
    if (badCombos == 0) {
        std::printf("%zu/%zu combinations verified clean\n",
                    combos.size(), combos.size());
        return 0;
    }
    std::fprintf(stderr, "%llu/%zu combination(s) FAILED\n",
                 static_cast<unsigned long long>(badCombos),
                 combos.size());
    return 1;
}

// ---- model: exhaustive reachability over the protocol engine ----

int
runModelCmd(core::cli::Options& opt)
{
    std::uint64_t maxStates = 1u << 20;
    opt.takeU64("max-states", maxStates);

    std::vector<int> procs = {2, 3, 4};
    std::string procsList;
    if (opt.takeFlag("procs", procsList)) {
        std::vector<std::uint64_t> grid;
        if (!core::cli::parseU64List(procsList, grid)) {
            std::fprintf(stderr, "malformed --procs=%s "
                                 "(want e.g. --procs=2,3,4)\n",
                         procsList.c_str());
            return usageError("model");
        }
        procs.clear();
        for (std::uint64_t p : grid)
            procs.push_back(static_cast<int>(p));
    }
    const bool noSymmetry = opt.takeSwitch("no-symmetry");

    sim::CheckMutation mutation = sim::CheckMutation::None;
    std::string mutateName;
    if (opt.takeFlag("mutate", mutateName)) {
#ifndef CCNUMA_CHECK_MUTATE
        std::fprintf(stderr,
                     "mutation hooks not compiled in "
                     "(build with -DCCNUMA_CHECK_MUTATE=ON)\n");
        return 2;
#else
        if (mutateName == "skip-inval") {
            mutation = sim::CheckMutation::SkipInvalidation;
        } else if (mutateName == "drop-owned-writeback") {
            mutation = sim::CheckMutation::DropOwnedWriteback;
        } else if (mutateName == "corrupt-moesi-table") {
            mutation = sim::CheckMutation::CorruptMoesiTable;
        } else {
            std::fprintf(stderr,
                         "unknown --mutate=%s (want skip-inval | "
                         "drop-owned-writeback | "
                         "corrupt-moesi-table)\n",
                         mutateName.c_str());
            return usageError("model");
        }
#endif
    }
    if (!strictFinish(opt, "model"))
        return 2;

    // A mutation only needs catching where the corrupted mechanism
    // exists: SkipInvalidation corrupts the invalidation fan-out
    // (Dragon updates instead), DropOwnedWriteback needs the Owned
    // state (MESI has none), CorruptMoesiTable zeroes a MOESI table
    // cell. --protocol narrows further to a single protocol.
    std::vector<std::string> protoSel = {"mesi", "moesi", "dragon"};
    switch (mutation) {
    case sim::CheckMutation::SkipInvalidation:
        protoSel = {"mesi", "moesi"};
        break;
    case sim::CheckMutation::DropOwnedWriteback:
        protoSel = {"moesi", "dragon"};
        break;
    case sim::CheckMutation::CorruptMoesiTable:
        protoSel = {"moesi"};
        break;
    default:
        break;
    }
    std::vector<std::string> fmtSel = {"fullbv", "coarse:4", "ptr:2"};
    if (!opt.protocol.empty())
        protoSel = {opt.protocol};
    if (!opt.dirFormat.empty())
        fmtSel = {opt.dirFormat};

    core::MetricsSink sink(opt.jsonFile);
    const bool mutated = mutation != sim::CheckMutation::None;
    std::uint64_t bad = 0;
    std::uint64_t combosRun = 0;
    for (const std::string& pn : protoSel) {
        for (const std::string& fn : fmtSel) {
            for (const int p : procs) {
                model::CheckOptions o;
                o.protocol = pn;
                o.dirFormat = fn;
                o.procs = p;
                o.maxStates = maxStates;
                o.mutation = mutation;
                o.symmetry = !noSymmetry;
                const model::CheckResult r = model::runCheck(o);
                if (r.invariant == "config") {
                    std::fprintf(stderr, "%s x %s P=%d: %s\n",
                                 pn.c_str(), fn.c_str(), p,
                                 r.detail.c_str());
                    return usageError("model");
                }
                ++combosRun;
                std::printf("%s", model::formatResult(r).c_str());
                model::emit(sink, r);
                if (mutated) {
                    // Inverted contract: the corruption must be
                    // caught, with an executable counterexample
                    // short enough to read (the BFS guarantees
                    // shortest; 20 is the acceptance ceiling).
                    const bool caught =
                        !r.ok && !r.truncated && r.replayed &&
                        r.counterexample.size() <= 20;
                    if (!caught) {
                        ++bad;
                        std::fprintf(stderr,
                                     "  mutation '%s' NOT caught on "
                                     "%s x %s P=%d\n",
                                     mutateName.c_str(), pn.c_str(),
                                     fn.c_str(), p);
                    }
                } else if (!r.ok) {
                    ++bad;
                }
            }
        }
    }
    if (!sink.write())
        std::fprintf(stderr, "failed to write --json file\n");
    if (bad == 0) {
        if (mutated)
            std::printf("mutation '%s' caught on %llu/%llu "
                        "combination(s): the checker has teeth\n",
                        mutateName.c_str(),
                        static_cast<unsigned long long>(combosRun),
                        static_cast<unsigned long long>(combosRun));
        else
            std::printf("%llu/%llu combination(s) verified "
                        "exhaustively\n",
                        static_cast<unsigned long long>(combosRun),
                        static_cast<unsigned long long>(combosRun));
        return 0;
    }
    std::fprintf(stderr, "%llu/%llu combination(s) %s\n",
                 static_cast<unsigned long long>(bad),
                 static_cast<unsigned long long>(combosRun),
                 mutated ? "did NOT catch the mutation" : "FAILED");
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    core::cli::Options opt = core::cli::parse(argc, argv);
    // "--help" lands in unknown; a bare "-h" parses as a positional.
    const bool helpFlag = opt.takeSwitch("help");
    if (helpFlag ||
        (!opt.positional.empty() &&
         (opt.positional[0] == "help" || opt.positional[0] == "-h"))) {
        std::printf("%s", kUsage);
        return 0;
    }
    if (opt.positional.empty()) {
        std::fprintf(stderr, "%s", kUsage);
        return 2;
    }
    const std::string cmd = opt.positional[0];
    if (cmd == "stress")
        return runStressCmd(opt);
    if (cmd == "golden")
        return runGoldenCmd(opt);
    if (cmd == "races")
        return runRacesCmd(opt);
    if (cmd == "diagnose")
        return runDiagnoseCmd(opt);
    if (cmd == "protocols")
        return runProtocolsCmd(opt);
    if (cmd == "model")
        return runModelCmd(opt);
    std::fprintf(stderr, "unknown command '%s'\n%s", cmd.c_str(),
                 kUsage);
    return 2;
}
