/**
 * @file
 * Scenario: evaluate an algorithmic restructuring before committing to
 * it -- compare an original application against its restructured
 * variant across machine sizes, per Section 5 of the paper.
 *
 * Usage: restructuring_lab [app] [size]   (`--help` for details)
 *   e.g. restructuring_lab barnes
 *        restructuring_lab water-nsq 8192
 */

#include <cstdio>
#include <string>

#include "apps/registry.hh"
#include "core/cli.hh"
#include "core/report.hh"
#include "core/study.hh"

using namespace ccnuma;

int
main(int argc, char** argv)
try {
    std::string app = "barnes";
    std::uint64_t size = 0;
    const core::cli::Command cmd{
        "restructuring_lab",
        "an original application against its restructured variant",
        {{"app", &app, "application (default barnes)"},
         {"size", &size, "problem size; 0 = the app's basic size"}},
        {}};
    if (const auto rc = core::cli::parse(cmd, argc, argv))
        return *rc;
    const std::string restr = apps::restructuredVariant(app);
    if (restr.empty()) {
        std::printf("no restructured variant registered for %s\n",
                    app.c_str());
        return 1;
    }

    core::printHeader("restructuring lab: " + app + " vs " + restr);
    core::SeqBaselineCache seq_cache;
    for (const int P : {32, 128}) {
        const sim::MachineConfig cfg = sim::MachineConfig::origin2000(P);
        // Both variants are measured against the original program's
        // sequential time, as in the paper.
        const auto orig = core::measure(
            cfg, [&] { return apps::makeApp(app, size); }, &seq_cache,
            app);
        const auto rest = core::measure(
            cfg, [&] { return apps::makeApp(restr, size); }, &seq_cache,
            app);
        std::printf("\nP=%d\n", P);
        std::printf("  %-26s speedup %6.1f  eff %5.1f%%\n", app.c_str(),
                    orig.speedup(), orig.efficiency() * 100);
        core::printBreakdown("    " + app, orig.par.breakdown());
        std::printf("  %-26s speedup %6.1f  eff %5.1f%%\n",
                    restr.c_str(), rest.speedup(),
                    rest.efficiency() * 100);
        core::printBreakdown("    " + restr, rest.par.breakdown());
        const double gain =
            (static_cast<double>(orig.parTime) - rest.parTime) /
            orig.parTime * 100;
        std::printf("  restructuring changes execution time by %+.1f%%"
                    " at P=%d\n",
                    -gain, P);
        std::fflush(stdout);
    }
    std::printf("\nPaper guideline: restructurings that separate out "
                "partitions and reduce\ncommunication may lose at "
                "moderate scale but win at large scale.\n");
    return 0;
} catch (const std::exception& e) {
    // An unknown app's message lists the valid names.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}