/**
 * @file
 * ccnuma_verify <command> [flags]: command-line driver for the
 * verification harness. Each subcommand is one entry of the table in
 * main(), whose flags generate its usage; `ccnuma_verify help` prints
 * them all. Exit status: 0 = verified, 1 = verification failure,
 * 2 = usage.
 */

#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
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
using core::cli::Command;

/// The committed baseline; CMake sets CCNUMA_GOLDEN_DIR to tests/golden.
constexpr const char* kGoldenPath = CCNUMA_GOLDEN_DIR "/metrics-v1.json";

/// A u64 as printf's %llu argument.
unsigned long long
ull(std::uint64_t v)
{
    return v;
}

/// Usage error (exit 2) for the first of `procs` that does not make a
/// valid `base` machine; nullopt when all do. Every subcommand checks
/// its processor counts before any work.
std::optional<int>
badProcs(const Command& cmd, sim::MachineConfig base,
         const std::vector<int>& procs)
{
    for (const int p : procs) {
        base.numProcs = p;
        const std::string err = base.validate();
        if (!err.empty())
            return core::cli::usageError(
                cmd, "procs=" + std::to_string(p) + ": " + err);
    }
    return std::nullopt;
}

struct StressArgs {
    check::StressOptions base; ///< seed, procs, ops and the machine.
    std::uint64_t seeds = 1;
    bool shrink = false;
    bool mutate = false;
};

int
runStress(StressArgs& a, const Command& cmd)
{
    if (const auto rc = badProcs(cmd, a.base.machine, {a.base.procs}))
        return *rc;
    if (a.mutate)
        a.base.mutation = sim::CheckMutation::SkipInvalidation;

    std::uint64_t failures = 0;
    for (std::uint64_t i = 0; i < a.seeds; ++i) {
        check::StressOptions o = a.base;
        o.seed = a.base.seed + i;
        const check::StressReport rep = check::runStress(o);
        std::printf("seed %llu: %llu commits, %llu loads checked, "
                    "%llu validations, %s\n",
                    ull(o.seed), ull(rep.commits), ull(rep.loadsChecked),
                    ull(rep.validations), rep.failed ? "FAILED" : "ok");
        if (!rep.failed)
            continue;
        ++failures;
        std::printf("  first violation (commit %llu): %s\n",
                    ull(rep.failCommit), rep.message.c_str());
        const check::StressReport replay = check::runStress(o);
        std::printf("  replay: %s\n",
                    replay == rep ? "bit-identical"
                                  : "MISMATCH (non-deterministic!)");
        if (a.shrink || a.mutate) {
            const check::ShrinkResult sh =
                check::shrink(check::generate(o), o);
            std::printf("  shrunk witness: %llu ops (from %llu, "
                        "%d runs)\n",
                        ull(sh.opsAfter), ull(sh.opsBefore), sh.runs);
            std::printf("%s", check::formatWitness(sh.program).c_str());
            std::printf("  witness failure: %s\n",
                        sh.report.message.c_str());
        }
    }

    if (a.mutate) {
        // Self-test: a broken protocol MUST be detected.
        if (failures == a.seeds) {
            std::printf("mutation caught on %llu/%llu seed(s): the "
                        "oracle has teeth\n",
                        ull(failures), ull(a.seeds));
            return 0;
        }
        std::fprintf(stderr, "mutation UNDETECTED on %llu/%llu seed(s)\n",
                     ull(a.seeds - failures), ull(a.seeds));
        return 1;
    }
    return failures == 0 ? 0 : 1;
}

struct GoldenArgs {
    int procs = 4;
    bool bless = false;
    std::string out;
    std::string check;
};

int
runGolden(const GoldenArgs& a, const Command& cmd)
{
    const bool hasOut = !a.out.empty();
    if (hasOut && !a.check.empty())
        return core::cli::usageError(cmd,
                                     "--out and --check are exclusive");
    if (const auto rc = badProcs(cmd, {}, {a.procs}))
        return *rc;

    const check::GoldenSnapshot current = check::computeGolden(a.procs);

    if (a.bless || hasOut) {
        const std::string path = hasOut ? a.out : kGoldenPath;
        std::string err;
        if (!check::writeGoldenFile(path, current, err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 1;
        }
        std::printf("blessed %zu app baselines -> %s\n",
                    current.entries.size(), path.c_str());
        return 0;
    }

    const std::string path = a.check.empty() ? kGoldenPath : a.check;
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
    std::fprintf(stderr, "re-bless with `ccnuma_verify golden --bless` if "
                         "intentional\n");
    return 1;
}

void
printRaceApp(const analyze::AppRaceResult& r)
{
    std::printf("%-24s %9llu mem ops, %7llu sync ops, %6llu shadow "
                "locations, %s\n",
                r.app.c_str(), ull(r.stats.memOps), ull(r.stats.syncOps),
                ull(r.stats.shadowLocations),
                r.races.empty() ? "race-free" : "RACES");
    for (const analyze::Race& race : r.races)
        std::printf("  %s\n", race.format().c_str());
}

struct RacesArgs {
    std::string app;
    bool all = false;
    int procs = 4;
    std::uint64_t seed = 1;
    std::uint64_t seeds = 1;
    int ops = 250;
    bool mutate = false;
    std::string json;
    sim::MachineConfig machine; ///< origin2000(procs) once parsed.
};

int
runRaceMutate(const RacesArgs& a)
{
    std::uint64_t undetected = 0;
    for (std::uint64_t i = 0; i < a.seeds; ++i) {
        check::StressOptions o = analyze::raceStressOptions(a.seed + i);
        o.procs = a.procs;
        o.opsPerProc = a.ops;
        o.machine.protocol = a.machine.protocol;
        o.machine.dirFormat = a.machine.dirFormat;
        const check::StressProgram prog = check::generate(o);

        // Clean run first: a disciplined program must analyze race-free
        // (otherwise the detector has false positives and a detection
        // below would prove nothing).
        const analyze::RaceStressResult clean =
            analyze::raceExecute(prog, o);
        if (clean.report.failed) {
            std::fprintf(stderr, "seed %llu: FALSE POSITIVE on the "
                                 "unmutated program: %s\n",
                         ull(o.seed), clean.report.message.c_str());
            ++undetected;
            continue;
        }

        o.mutation = sim::CheckMutation::DropLockAcquire;
        const analyze::RaceStressResult broken =
            analyze::raceExecute(prog, o);
        if (!broken.report.failed) {
            std::fprintf(stderr, "seed %llu: DropLockAcquire UNDETECTED\n",
                         ull(o.seed));
            ++undetected;
            continue;
        }
        const check::ShrinkResult sh = analyze::shrinkRace(prog, o);
        std::printf("seed %llu: mutation caught (%llu races); shrunk "
                    "witness %llu ops (from %llu, %d runs)\n",
                    ull(o.seed), ull(broken.stats.racesFound), ull(sh.opsAfter),
                    ull(sh.opsBefore), sh.runs);
        std::printf("%s", check::formatWitness(sh.program).c_str());
        std::printf("  witness race: %s\n",
                    sh.report.message.c_str());
    }
    if (undetected == 0) {
        std::printf("race detector self-test passed on %llu seed(s)\n",
                    ull(a.seeds));
        return 0;
    }
    return 1;
}

int
runRaces(RacesArgs& a, const Command& cmd)
{
    if (!a.app.empty() && a.all)
        return core::cli::usageError(cmd, "--app and --all are exclusive");
    if (const auto rc = badProcs(cmd, a.machine, {a.procs}))
        return *rc;
    a.machine.numProcs = a.procs;
    if (a.mutate)
        return runRaceMutate(a);

    core::MetricsSink sink(a.json);
    sink.setMachine(a.machine);
    std::vector<analyze::AppRaceResult> results;
    if (!a.app.empty()) {
        try {
            results.push_back(analyze::analyzeApp(a.app, a.machine));
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    } else {
        results = analyze::analyzeAllApps(a.machine);
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
                 ull(racy), results.size());
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

struct DiagnoseArgs {
    diagnose::DiagnoseOptions opt; ///< procs, size, epoch, jobs.
    std::string app;
    bool all = false;
    std::string json;
    std::string html;
    sim::MachineConfig machine; ///< Its protocol and directory format.
};

int
runDiagnose(DiagnoseArgs& a, const Command& cmd)
{
    if (!a.app.empty() && a.all)
        return core::cli::usageError(cmd, "--app and --all are exclusive");
    if (const auto rc = badProcs(cmd, a.machine, a.opt.procs))
        return *rc;
    diagnose::DiagnoseOptions& dopt = a.opt;
    dopt.protocol = a.machine.protocol;
    dopt.dirFormat = a.machine.dirFormat;

    std::vector<diagnose::AppDiagnosis> results;
    if (!a.app.empty()) {
        try {
            results.push_back(diagnose::diagnoseApp(a.app, dopt));
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    } else {
        dopt.progress = true;
        results = diagnose::diagnoseAllApps(dopt);
    }

    std::uint64_t failed = 0;
    for (const diagnose::AppDiagnosis& d : results) {
        printDiagnosis(d);
        if (!d.ok)
            ++failed;
    }
    if (!a.json.empty() &&
        !diagnose::writeDiagnoseJsonFile(a.json, results)) {
        std::fprintf(stderr, "failed to write %s\n", a.json.c_str());
        return 1;
    }
    if (!a.json.empty())
        std::printf("wrote %s\n", a.json.c_str());
    if (!a.html.empty()) {
        if (!diagnose::writeDashboardFile(a.html, results)) {
            std::fprintf(stderr, "failed to write %s\n", a.html.c_str());
            return 1;
        }
        std::printf("wrote %s (self-contained dashboard)\n",
                    a.html.c_str());
    }
    if (failed) {
        std::fprintf(stderr, "%llu app(s) failed to diagnose\n",
                     ull(failed));
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
            apps::makeApp(name, apps::goldenSize(name));
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

struct ProtocolsArgs {
    check::StressOptions stress{.opsPerProc = 150}; ///< seed, procs, ops.
    std::uint64_t seeds = 3;
    std::string apps = "fft,ocean,radix";
    std::vector<int> diagProcs = {1, 8, 32};
    int jobs = 1;
    std::string json;
};

int
runProtocols(const ProtocolsArgs& a, const Command& cmd)
{
    // Processor counts and names are checked before the first
    // combination's minutes of work.
    if (const auto rc = badProcs(cmd, a.stress.machine, {a.stress.procs}))
        return *rc;
    if (const auto rc = badProcs(cmd, {}, a.diagProcs))
        return *rc;
    std::vector<std::string> diagApps;
    std::istringstream appList(a.apps);
    for (std::string app; std::getline(appList, app, ',');) {
        if (app.empty())
            continue;
        if (!apps::tryMakeApp(app))
            return core::cli::usageError(cmd, "unknown app '" + app + "'");
        diagApps.push_back(app);
    }

    const std::vector<std::string> protoNames = {"mesi", "moesi",
                                                 "dragon"};
    const std::vector<std::string> dirNames = {"fullbv", "coarse:4",
                                               "ptr:2"};

    core::MetricsSink sink(a.json);
    std::vector<ComboResult> combos;
    for (const std::string& pn : protoNames) {
        for (const std::string& dn : dirNames) {
            sim::MachineConfig machine =
                sim::MachineConfig::origin2000(a.stress.procs);
            machine.protocol.parse(pn); // names from the lists above
            machine.dirFormat.parse(dn);
            ComboResult cr;
            cr.proto = pn;
            cr.dir = dn;
            std::printf("== %s ==\n", cr.label().c_str());

            // 1. Randomized stress under the SC oracle.
            for (std::uint64_t i = 0; i < a.seeds; ++i) {
                check::StressOptions o = a.stress;
                o.seed += i;
                o.machine.protocol = machine.protocol;
                o.machine.dirFormat = machine.dirFormat;
                const check::StressReport rep = check::runStress(o);
                if (!rep.failed)
                    continue;
                ++cr.stressFailures;
                std::printf("  stress seed %llu FAILED: %s\n",
                            ull(o.seed), rep.message.c_str());
                const check::ShrinkResult sh =
                    check::shrink(check::generate(o), o);
                std::printf("  shrunk witness: %llu ops\n%s",
                            ull(sh.opsAfter),
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
            dopt.procs = a.diagProcs;
            dopt.jobs = a.jobs;
            dopt.protocol = machine.protocol;
            dopt.dirFormat = machine.dirFormat;
            for (const std::string& app : diagApps)
                cr.verdicts.push_back(
                    shortVerdict(diagnose::diagnoseApp(app, dopt)));

            const std::uint64_t nApps = apps::listApps().size();
            std::printf("  stress %llu/%llu ok, oracle %llu/%llu "
                        "clean, races %llu/%llu free\n",
                        ull(a.seeds - cr.stressFailures), ull(a.seeds),
                        ull(nApps - cr.oracleBadApps), ull(nApps),
                        ull(nApps - cr.racyApps), ull(nApps));

            const std::string label = "protocols/" + cr.label();
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
                 ull(badCombos), combos.size());
    return 1;
}

// ---- model: exhaustive reachability over the protocol engine ----

struct ModelArgs {
    std::vector<int> procs = {2, 3, 4};
    std::uint64_t maxStates = 1u << 20;
    bool noSymmetry = false;
    std::string json;
    std::string mutate;
    std::string protocol;
    std::string dirFormat;
};

int
runModel(const ModelArgs& a, const Command& cmd)
{
    // A mutation only needs catching where the corrupted mechanism
    // exists: SkipInvalidation corrupts the invalidation fan-out
    // (Dragon updates instead), DropOwnedWriteback needs the Owned
    // state (MESI has none), CorruptMoesiTable zeroes a MOESI table
    // cell. --protocol narrows further to a single protocol.
    sim::CheckMutation mutation = sim::CheckMutation::None;
    std::vector<std::string> protoSel = {"mesi", "moesi", "dragon"};
    if (a.mutate == "skip-inval") {
        mutation = sim::CheckMutation::SkipInvalidation;
        protoSel = {"mesi", "moesi"};
    } else if (a.mutate == "drop-owned-writeback") {
        mutation = sim::CheckMutation::DropOwnedWriteback;
        protoSel = {"moesi", "dragon"};
    } else if (a.mutate == "corrupt-moesi-table") {
        mutation = sim::CheckMutation::CorruptMoesiTable;
        protoSel = {"moesi"};
    } else if (!a.mutate.empty()) {
        return core::cli::usageError(cmd, "unknown --mutate=" + a.mutate);
    }
    std::vector<std::string> fmtSel = {"fullbv", "coarse:4", "ptr:2"};
    if (!a.protocol.empty())
        protoSel = {a.protocol};
    if (!a.dirFormat.empty())
        fmtSel = {a.dirFormat};

    // Every requested combination must name a machine before any
    // runs, so a usage error never follows printed results.
    std::vector<model::CheckOptions> checks;
    for (const std::string& pn : protoSel) {
        for (const std::string& fn : fmtSel) {
            for (const int p : a.procs) {
                model::CheckOptions o;
                o.protocol = pn;
                o.dirFormat = fn;
                o.procs = p;
                o.maxStates = a.maxStates;
                o.mutation = mutation;
                o.symmetry = !a.noSymmetry;
                if (std::string err = model::configError(o); !err.empty())
                    return core::cli::usageError(
                        cmd, pn + " x " + fn + " P=" + std::to_string(p) +
                                 ": " + err);
                checks.push_back(std::move(o));
            }
        }
    }

    core::MetricsSink sink(a.json);
    const bool mutated = mutation != sim::CheckMutation::None;
    std::uint64_t bad = 0;
    const std::uint64_t combosRun = checks.size();
    for (const model::CheckOptions& o : checks) {
        const model::CheckResult r = model::runCheck(o);
        std::printf("%s", model::formatResult(r).c_str());
        model::emit(sink, r);
        if (mutated) {
            // Inverted contract: the corruption must be caught, with
            // an executable counterexample short enough to read (the
            // BFS guarantees shortest; 20 is the acceptance ceiling).
            const bool caught = !r.ok && !r.truncated && r.replayed &&
                                r.counterexample.size() <= 20;
            if (!caught) {
                ++bad;
                std::fprintf(stderr,
                             "  mutation '%s' NOT caught on %s x %s "
                             "P=%d\n",
                             a.mutate.c_str(), o.protocol.c_str(),
                             o.dirFormat.c_str(), o.procs);
            }
        } else if (!r.ok) {
            ++bad;
        }
    }
    if (!sink.write())
        std::fprintf(stderr, "failed to write --json file\n");
    if (bad == 0) {
        if (mutated)
            std::printf("mutation '%s' caught on %llu/%llu "
                        "combination(s): the checker has teeth\n",
                        a.mutate.c_str(), ull(combosRun), ull(combosRun));
        else
            std::printf("%llu/%llu combination(s) verified "
                        "exhaustively\n",
                        ull(combosRun), ull(combosRun));
        return 0;
    }
    std::fprintf(stderr, "%llu/%llu combination(s) %s\n",
                 ull(bad), ull(combosRun),
                 mutated ? "did NOT catch the mutation" : "FAILED");
    return 1;
}

/** One subcommand: its flags generate its usage. */
struct Subcommand {
    const char* name;
    const char* summary;
    std::vector<core::cli::Arg> flags;
    std::function<int(const Command&)> run;

    Command command() const
    {
        return {std::string("ccnuma_verify ") + name, summary, {}, flags};
    }
};

} // namespace

int
main(int argc, char** argv)
{
    StressArgs st;
    GoldenArgs go;
    RacesArgs ra;
    DiagnoseArgs di;
    ProtocolsArgs pr;
    ModelArgs mo;
    const std::vector<Subcommand> commands = {
        {"stress",
         "randomized programs under the sequential-consistency oracle;\n"
         "a failing seed is replayed, then shrunk to a witness",
         {{"seed=N", &st.base.seed, "first seed (default 1)"},
          {"seeds=K", &st.seeds, "consecutive seeds (default 1)"},
          {"procs=P", &st.base.procs, "processors (default 8)"},
          {"ops=N", &st.base.opsPerProc, "ops per processor (default 250)"},
          {"shrink", &st.shrink, "shrink every failure to a witness"},
          {"mutate", &st.mutate, "broken SkipInvalidation: must be caught"},
          {"machine", &st.base.machine, ""}},
         [&](const Command& c) { return runStress(st, c); }},
        {"golden",
         "recompute the per-app golden-metrics snapshot (default mesi +\n"
         "fullbv machine) and diff it against, or --bless, the baseline",
         {{"procs=P", &go.procs, "processors (default 4)"},
          {"bless", &go.bless, "rewrite the committed baseline"},
          {"out=FILE", &go.out, "write the snapshot to FILE"},
          {"check=FILE", &go.check, "diff against FILE, not the baseline"}},
         [&](const Command& c) { return runGolden(go, c); }},
        {"races",
         "happens-before race analysis of the registered apps, or the\n"
         "detector's self-test with --mutate",
         {{"app=NAME", &ra.app, "one app (default: all)"},
          {"all", &ra.all, "every registered app"},
          {"procs=P", &ra.procs, "processors (default 4)"},
          {"seed=N", &ra.seed, "--mutate: first seed (default 1)"},
          {"seeds=K", &ra.seeds, "--mutate: seeds (default 1)"},
          {"ops=N", &ra.ops, "--mutate: ops per processor (default 250)"},
          {"mutate", &ra.mutate, "DropLockAcquire must race; shrink it"},
          {"json=FILE", &ra.json, "per-app detector statistics"},
          {"machine", &ra.machine, ""}},
         [&](const Command& c) { return runRaces(ra, c); }},
        {"diagnose",
         "scaling-loss diagnosis: a ranked verdict per app (locks,\n"
         "barriers, Hub contention, placement, capacity) from a sweep",
         {{"app=NAME", &di.app, "one app (default: all)"},
          {"all", &di.all, "every registered app"},
          {"procs=P1,P2,..", &di.opt.procs, "machine sizes (default 1,8,32)"},
          {"size=N", &di.opt.size, "problem size; 0 = golden size"},
          {"epoch-cycles=N", &di.opt.epochCycles, "0 = trace default"},
          {"jobs=N", &di.opt.jobs, "workers (default 1); 0 = one per core"},
          {"json=FILE", &di.json, "the verdicts as one JSON document"},
          {"html=FILE", &di.html, "a self-contained dashboard"},
          {"machine", &di.machine, ""}},
         [&](const Command& c) { return runDiagnose(di, c); }},
        {"protocols",
         "per {mesi,moesi,dragon} x {fullbv,coarse:4,ptr:2} combination:\n"
         "stress, all-apps oracle and races, diagnosis of --apps; a grid",
         {{"seed=N", &pr.stress.seed, "first stress seed (default 1)"},
          {"seeds=K", &pr.seeds, "stress seeds (default 3)"},
          {"procs=P", &pr.stress.procs, "stress processors (default 8)"},
          {"ops=N", &pr.stress.opsPerProc,
           "stress ops per processor (default 150)"},
          {"apps=A,B,..", &pr.apps, "diagnosed (default fft,ocean,radix)"},
          {"diag-procs=P1,P2,..", &pr.diagProcs, "sizes (default 1,8,32)"},
          {"jobs=N", &pr.jobs, "workers (default 1); 0 = one per core"},
          {"json=FILE", &pr.json, "the grid as JSON"}},
         [&](const Command& c) { return runProtocols(pr, c); }},
        {"model",
         "exhaustive model check of one line: prove the invariants on all\n"
         "9 combinations, or catch --mutate with a short counterexample",
         {{"procs=P1,P2,..", &mo.procs, "processor counts (default 2,3,4)"},
          {"max-states=N", &mo.maxStates, "per check (default 1048576)"},
          {"no-symmetry", &mo.noSymmetry, "no permutation reduction"},
          {"json=FILE", &mo.json, "every check's result as JSON"},
          {"mutate=M", &mo.mutate,
           "skip-inval | drop-owned-writeback | corrupt-moesi-table"},
          {"protocol=P", &mo.protocol, "only mesi | moesi | dragon"},
          {"dir-format=F", &mo.dirFormat, "only fullbv | coarse:K | ptr:N"}},
         [&](const Command& c) { return runModel(mo, c); }},
    };

    const std::string name = argc > 1 ? argv[1] : "";
    for (const Subcommand& sub : commands) {
        if (name != sub.name)
            continue;
        const Command cmd = sub.command();
        if (const auto rc = core::cli::parse(cmd, argc - 1, argv + 1))
            return *rc;
        return sub.run(cmd);
    }
    const bool help = name == "help" || name == "--help" || name == "-h";
    std::string text = "usage: ccnuma_verify <command> [flags]\n";
    for (const Subcommand& sub : commands)
        text += "\n" + core::cli::usage(sub.command());
    text += "\nexit status: 0 = verified, 1 = verification failure, "
            "2 = usage\n";
    if (!help && !name.empty())
        std::fprintf(stderr, "ccnuma_verify: unknown command '%s'\n",
                     name.c_str());
    std::fprintf(help ? stdout : stderr, "%s", text.c_str());
    return help ? 0 : 2;
}
