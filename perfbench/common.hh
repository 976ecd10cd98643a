/**
 * @file
 * Shared pieces of the perfbench program: the span recorder, summary
 * statistics, the pinned-value store and the result line.
 *
 * Timing lives entirely in this directory. The program calls only the
 * public functions of the layers it measures (apps, sim, core, serve)
 * and wraps each call in a span; nothing inside src/ carries a timer.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "check/json.hh"
#include "sim/stats.hh"

namespace ccnuma::apps {}
namespace ccnuma::core {}
namespace ccnuma::serve {}

namespace perfbench {

namespace apps = ccnuma::apps;
namespace check = ccnuma::check;
namespace core = ccnuma::core;
namespace serve = ccnuma::serve;
namespace sim = ccnuma::sim;

using Clock = std::chrono::steady_clock;

/// Seconds since the process's time origin (first call).
double nowS();

/**
 * In-memory span recorder. A span has a name, start and end (nowS()
 * seconds), the index of its parent span (-1 for a root) and the case
 * or request it belongs to. Spans are only stored when enabled — the
 * untraced runs that produce end-to-end metrics keep nothing — and are
 * written out once, at exit. Safe to call from several threads.
 */
class Spans
{
  public:
    struct Span {
        std::string name;
        double start = 0, end = 0;
        int parent = -1;
        std::string id;
    };

    void enable(bool on) { enabled_ = on; }

    /// Record a finished span; returns its index (-1 when disabled).
    int add(std::string name, double start, double end, int parent,
            std::string id);

    /// Sum over spans called `name` of duration minus child coverage.
    double selfTotal(const std::string& name) const;
    std::size_t size() const;

    /// Write every span as one JSON document to `path`.
    bool write(const std::string& path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// Linear-interpolated quantile q in [0,1] of `v` (0 when empty).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process in MB.
double peakRssMb();

/// FNV-1a 64 of `s` as 16 lowercase hex digits.
std::string fnv1aHex(const std::string& s);

/// Simulated counters a workload pins per case.
std::map<std::string, std::uint64_t> pinCounters(const sim::RunResult& r);

/**
 * Pinned simulated values, recorded once (--record-pins) and checked on
 * every run: a section per workload, each mapping a case or cache key
 * to an object of exact values.
 */
class Pins
{
  public:
    /// Load `path`; false (with `error` set) when unreadable/malformed.
    bool load(const std::string& path, std::string& error);

    /// Compare `got` against the pinned entry `section`/`key`. Every
    /// pinned field must be present and equal, and vice versa. In
    /// recording mode the entry is stored instead and true returned.
    bool check(const std::string& section, const std::string& key,
               const std::map<std::string, std::string>& got);

    /// A pinned field's value ("0" when absent).
    std::string pinned(const std::string& section, const std::string& key,
                       const std::string& field) const;

    void startRecording() { recording_ = true; }
    bool recording() const { return recording_; }
    /// Write the recorded entries as JSON to `path`.
    bool write(const std::string& path) const;

    /// Description of the first mismatch seen (empty when none).
    const std::string& firstMismatch() const { return mismatch_; }

  private:
    bool recording_ = false;
    check::json::Value root_;
    mutable std::mutex mu_;
    std::map<std::string,
             std::map<std::string, std::map<std::string, std::string>>>
        recorded_;
    std::string mismatch_;
};

/// Counters rendered as the string map Pins::check compares.
std::map<std::string, std::string>
asPinFields(const std::map<std::string, std::uint64_t>& c);

/** One named metric with its unit. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** Per-layer values a traced run measured, by metric name. */
class LayerReport
{
  public:
    void set(const std::string& name, double v) { values_[name] = v; }
    /// The value, or 0 when this workload does not reach that layer.
    double get(const std::string& name) const
    {
        const auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }
    const std::map<std::string, double>& values() const { return values_; }

  private:
    std::map<std::string, double> values_;
};

/** What a workload reports: the result line's fields. */
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics; ///< End-to-end (untraced run).
    LayerReport layers;          ///< Per-layer (traced run).
    /// Lines printed before the result (human-readable summary).
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Command-line settings every workload receives. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string pinsPath;
    std::string spansPath; ///< Where the traced run writes its spans.
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
