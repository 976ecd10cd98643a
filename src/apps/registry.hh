/**
 * @file
 * Application registry: one table row per registered name (the eleven
 * originals of the paper's Table 2 and every variant) holding all its
 * facts: factory, basic and golden sizes, size unit, restructured
 * variant and timing invariance. Every function here looks a name up
 * exactly; an unknown name throws std::invalid_argument whose message
 * lists every valid name (tryMakeApp returns nullptr instead).
 */

#ifndef CCNUMA_APPS_REGISTRY_HH
#define CCNUMA_APPS_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hh"

namespace ccnuma::apps {

/**
 * Create an application by name (one of listApps()).
 *
 * `size` is the app's natural problem-size unit (see basicSize());
 * size == 0 means the basic size.
 *
 * @throws std::invalid_argument for an unknown name, or a size the
 * app's config cannot hold.
 */
AppPtr makeApp(const std::string& name, std::uint64_t size = 0);

/// Non-throwing makeApp: nullptr for unknown names.
AppPtr tryMakeApp(const std::string& name, std::uint64_t size = 0);

/// Every constructible name, sorted: the eleven originals plus all
/// variants.
const std::vector<std::string>& listApps();

/// The app's basic problem size (Table 2, scaled per DESIGN.md).
std::uint64_t basicSize(const std::string& name);

/// The app's golden-metrics size: small enough for every app to run
/// in test time (golden metrics, tests, perfbench grids).
std::uint64_t goldenSize(const std::string& name);

/// Human-readable unit of the size parameter ("points", "molecules"..).
std::string sizeUnit(const std::string& name);

/**
 * True when the app's operation stream (the sequence of memory, busy
 * and synchronization calls each process makes) is a pure function of
 * the program and problem size, independent of simulated timing.
 *
 * Such an app's stream can be generated ahead of the simulation that
 * consumes it without changing any result (e.g. to prefetch the host
 * state the next ops touch); a timing-variant app's cannot, because
 * its next op may depend on the timing of the last. Timing-variant
 * apps are those whose work distribution is decided dynamically:
 * everything built on apps::TaskQueues (task stealing picks victims by
 * observing queue occupancy), and barnes-mergetree (per-process work
 * scales with the arrival rank at the merge lock).
 */
bool timingInvariant(const std::string& name);

/// The canonical names of the eleven applications' original versions,
/// in Fig. 2's row order.
const std::vector<std::string>& originalApps();

/// Mapping of original name -> restructured variant name ("" for a
/// variant, or an original the paper restructures by problem size
/// only).
std::string restructuredVariant(const std::string& original);

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_REGISTRY_HH
