/**
 * @file
 * Plain-text reporting helpers shared by ccnuma_paper and the examples:
 * figure-style series tables, execution-time breakdown bars and
 * per-processor breakdown continua (the paper's Figures 3 and 5-8).
 */

#ifndef CCNUMA_CORE_REPORT_HH
#define CCNUMA_CORE_REPORT_HH

#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/stats.hh"

namespace ccnuma::core {

/// "==== <title> ====" header.
void printHeader(const std::string& title);

/** One named series of (x, y) points, e.g. efficiency vs problem size. */
struct Series {
    std::string name;
    std::vector<std::string> xs;
    std::vector<double> ys;
};

/// Tabulate several series sharing x labels:
///   x | series1 | series2 ...
void printSeries(const std::string& x_label,
                 const std::vector<Series>& series);

/// One Busy/Memory/Sync breakdown line with a proportional ASCII bar.
void printBreakdown(const std::string& label, const sim::Breakdown& b);

/// Per-processor breakdown continuum (Figures 5-8): rows of processors
/// grouped into `buckets` buckets, with busy/mem/sync percentages.
void printPerProcBreakdown(const std::string& label,
                           const sim::RunResult& r, int buckets = 16);

/// Counter summary line (misses by type, invals, writebacks, prefetch
/// issued/useful, locks, barriers...).
void printCounters(const std::string& label, const sim::ProcCounters& c);

/// One-line summary of a miss-latency histogram (count/mean/p50/p95/
/// p99/max in cycles); prints nothing for an empty histogram.
void printLatencyHistogram(const std::string& label,
                           const obs::LatencyHisto& h);

/// Summaries for every per-class histogram collected in `t`.
void printLatencyHistograms(const obs::Trace& t);

/// Top-N hottest coherence lines with their true/false-sharing
/// classification, and the hottest pages (requires trace.sharing).
void printHotLines(const obs::Trace& t, int top_n = 10);

/// Format helper: fixed-width double.
std::string fmt(double v, int width = 7, int prec = 2);

} // namespace ccnuma::core

#endif // CCNUMA_CORE_REPORT_HH
