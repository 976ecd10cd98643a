/**
 * @file
 * Application registry: build any application (and variant) by name
 * with a problem-size parameter, and the table of "basic" problem
 * sizes corresponding to the paper's Table 2 (scaled where the paper's
 * size is beyond what direct simulation can cover; see DESIGN.md).
 */

#ifndef CCNUMA_APPS_REGISTRY_HH
#define CCNUMA_APPS_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hh"

namespace ccnuma::apps {

/**
 * Create an application by name.
 *
 * Names: "fft", "ocean", "ocean-rowwise", "radix", "samplesort",
 * "barnes", "barnes-mergetree", "barnes-spatial", "water-nsq",
 * "water-nsq-interchanged", "water-spatial", "raytrace",
 * "raytrace-nostatslock", "volrend", "volrend-balanced", "shearwarp",
 * "shearwarp-locality", "infer", "infer-static", "protein",
 * "protein-noregroup".
 *
 * `size` is the app's natural problem-size unit (see basicSize());
 * size == 0 means the basic size.
 *
 * @throws std::invalid_argument for unknown names; the message lists
 * every valid name.
 */
AppPtr makeApp(const std::string& name, std::uint64_t size = 0);

/// Non-throwing makeApp: nullptr for unknown names.
AppPtr tryMakeApp(const std::string& name, std::uint64_t size = 0);

/// Every constructible name: the eleven originals plus all variants.
const std::vector<std::string>& listApps();

/// The app's basic problem size (Table 2, scaled per DESIGN.md).
std::uint64_t basicSize(const std::string& name);

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

/// The canonical names of the eleven applications' original versions.
const std::vector<std::string>& originalApps();

/// Mapping of original name -> restructured variant name ("" if the
/// paper restructures it by problem size only).
std::string restructuredVariant(const std::string& original);

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_REGISTRY_HH
