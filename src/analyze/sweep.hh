/**
 * @file
 * Driving the race detector: over every registered application, and
 * over generated stress programs (with ddmin witness minimization via
 * check::shrinkWith).
 *
 * The application sweep runs each app at its golden-harness problem
 * size on a small origin2000 machine with a RaceDetector attached and
 * expects zero races — the apps are the paper's properly-synchronized
 * programs, so a report here is either an app bug or a detector bug,
 * and both are worth failing loudly on.
 *
 * The stress path generates *disciplined* programs (see
 * check::StressOptions::disciplined): race-free by construction, so
 * the detector must stay silent — until the DropLockAcquire check
 * mutation removes the locking, at which point it must fire, and the
 * failing program is minimized to a small witness with the shared
 * ddmin machinery. That pair is the detector's end-to-end self-test.
 */

#ifndef CCNUMA_ANALYZE_SWEEP_HH
#define CCNUMA_ANALYZE_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/race.hh"
#include "check/shrink.hh"
#include "check/stress.hh"

namespace ccnuma::core {
class MetricsSink;
}

namespace ccnuma::analyze {

/** Race-analysis outcome for one application run. */
struct AppRaceResult {
    std::string app;
    std::uint64_t size = 0;  ///< Problem size used.
    sim::Cycles time = 0;    ///< Parallel run time.
    std::vector<Race> races; ///< Empty = race-free execution.
    DetectorStats stats;
};

/**
 * Run one application (size 0 = apps::goldenSize) on an
 * origin2000(procs) machine under the race detector.
 * @throws std::invalid_argument for unknown app names.
 */
AppRaceResult analyzeApp(const std::string& name, int procs = 4,
                         std::uint64_t size = 0,
                         DetectorOptions opt = {});

/**
 * Same, on an explicit machine shape — the way to race-sweep a
 * non-default coherence protocol or directory format
 * (cfg.protocol / cfg.dirFormat).
 */
AppRaceResult analyzeApp(const std::string& name,
                         const sim::MachineConfig& cfg,
                         std::uint64_t size = 0,
                         DetectorOptions opt = {});

/// analyzeApp over every apps::listApps() variant.
std::vector<AppRaceResult> analyzeAllApps(int procs = 4,
                                          DetectorOptions opt = {});

/// analyzeAllApps on an explicit machine shape.
std::vector<AppRaceResult> analyzeAllApps(const sim::MachineConfig& cfg,
                                          DetectorOptions opt = {});

/// Record one app result's detector statistics under label
/// "races/<app>" (ops analyzed, vector-clock joins, shadow footprint,
/// races found, ...).
void emitMetrics(const AppRaceResult& r, core::MetricsSink& sink);

/** Stress execution judged by the race detector. */
struct RaceStressResult {
    check::StressReport report; ///< failed = a race (or oracle bug).
    std::vector<Race> races;
    DetectorStats stats;
};

/// Stress options tuned for race analysis: disciplined generation and
/// a higher lock-section rate, seeded from `seed`.
check::StressOptions raceStressOptions(std::uint64_t seed);

/// Execute `prog` with a fresh RaceDetector attached; a detected race
/// marks the report failed with the race's description (an SC-oracle
/// violation would too — protocol bugs don't get masked).
RaceStressResult raceExecute(const check::StressProgram& prog,
                             const check::StressOptions& opt);

/// check::StressRunner adapter over raceExecute for shrinkWith().
check::ShrinkResult shrinkRace(const check::StressProgram& prog,
                               const check::StressOptions& opt,
                               int maxRuns = 600);

} // namespace ccnuma::analyze

#endif // CCNUMA_ANALYZE_SWEEP_HH
