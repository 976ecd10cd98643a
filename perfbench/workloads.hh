/**
 * @file
 * The benchmark's workloads. Each runs for Options::seconds, checks
 * every simulated result against the pins, and returns either the
 * end-to-end metrics (untraced) or the per-layer metrics (traced).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench {

Outcome runSimHot(const Options& opt, Pins& pins, Spans& spans);
Outcome runFig2Study(const Options& opt, Pins& pins, Spans& spans);
Outcome runServeMixed(const Options& opt, Pins& pins, Spans& spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
