/**
 * @file
 * Machine-readable metrics sink for the drivers: collects named run
 * results (breakdowns, totals, scalar series) and writes one JSON
 * document, so results can be tracked across revisions (e.g.
 * `ccnuma_paper fig3_breakdown --json=BENCH_fig3.json`).
 */

#ifndef CCNUMA_CORE_METRICS_HH
#define CCNUMA_CORE_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace ccnuma::sim {
struct MachineConfig;
}

namespace ccnuma::core {

/**
 * Accumulates labelled measurements; write() emits them as JSON. A sink
 * constructed with an empty path is disabled: add()/write() are no-ops,
 * so call sites need no conditionals.
 */
class MetricsSink
{
  public:
    explicit MetricsSink(std::string path) : path_(std::move(path)) {}

    /// A sink that collects without a backing file; read it out with
    /// str(). Used by ccnuma_serve to stream results over the wire in
    /// exactly the format the drivers write to disk.
    static MetricsSink
    inMemory()
    {
        MetricsSink s{std::string()};
        s.collect_ = true;
        return s;
    }

    bool enabled() const { return collect_ || !path_.empty(); }

    /// Record the machine identity the runs used — coherence protocol
    /// and directory sharer format — emitted once as a top-level
    /// "machine" object so every payload says what it measured.
    void setMachine(const sim::MachineConfig& cfg);

    /// Record one run under `label` (breakdown, totals, run time).
    void add(const std::string& label, const sim::RunResult& r);
    /// Attach a scalar (e.g. speedup) to the entry named `label`,
    /// creating a scalar-only entry if none exists.
    void addScalar(const std::string& label, const std::string& key,
                   double v);
    /// Attach an exact integer (cycle/op counts round-trip exactly,
    /// unlike a double scalar).
    void addCount(const std::string& label, const std::string& key,
                  std::uint64_t v);
    /// Attach a string (e.g. a git describe, a grid name).
    void addText(const std::string& label, const std::string& key,
                 const std::string& v);

    /// Write the JSON document; returns false on I/O error (or true
    /// without writing when disabled or in-memory).
    bool write() const;

    /// Render the JSON document as a string (indent 0 = one compact
    /// line, newline-free — the ccnuma_serve NDJSON payload form).
    std::string str(int indent = 0) const;

  private:
    struct Entry {
        std::string label;
        bool hasRun = false;
        sim::Cycles time = 0;
        sim::Breakdown breakdown;
        sim::ProcCounters totals;
        std::vector<std::pair<std::string, std::string>> texts;
        std::vector<std::pair<std::string, std::uint64_t>> counts;
        std::vector<std::pair<std::string, double>> scalars;
    };
    Entry& entry(const std::string& label);
    void emit(std::ostream& out, int indent) const;

    std::string path_;
    bool collect_ = false;
    std::string machineProtocol_;
    std::string machineDirFormat_;
    std::vector<Entry> entries_;
};

} // namespace ccnuma::core

#endif // CCNUMA_CORE_METRICS_HH
