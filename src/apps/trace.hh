/**
 * @file
 * Access-trace record/replay: a portable text format for complete
 * simulation inputs, a recorder that captures one from any App, and a
 * TraceReplayApp that runs one as a first-class application.
 *
 * A trace is a full, replayable description of a run: the ordered
 * machine-building calls (arena allocations, barrier/lock creation,
 * explicit page placement) plus each simulated processor's operation
 * stream over the sim::OpKind alphabet. The engine is
 * deterministic in (MachineConfig, building calls, op streams), so
 * replaying a trace recorded from an app reproduces that app's run
 * bit-for-bit — miss/invalidation counters, cycle times, everything.
 * That exactness is test-enforced (tests/test_trace_replay.cc) and is
 * what lets `ccnuma_serve` accept outside workloads without trusting
 * them: an uploaded trace runs through the same engine, oracle-checked
 * machinery and metrics pipeline as the built-in applications.
 *
 * Format (`ccnuma-trace v1`, line-oriented ASCII, decimal numbers):
 *
 *   ccnuma-trace v1
 *   app fft                  # optional provenance label (one token)
 *   procs 4                  # simulated processors (required, >= 1)
 *   alloc 131072             # setup events, in call order:
 *   barrier 4                #   barrierCreate(participants)
 *   lock                     #   lockCreate()
 *   place 1048576 131072 0   #   place(addr, bytes, node)
 *   placeacross 1048576 131072
 *   ops 0 3                  # then one block per processor, ascending:
 *   r 1048576                #   r/w addr       load/store
 *   b 100                    #   b cycles       busy
 *   B 0                      #   B/L/U idx      barrier/acquire/release
 *   ops 1 0                  #   pf/fo/m addr   prefetch/fetchOp/rmw
 *   ...                      #   y              checkpoint
 *   end
 *
 * Parsing is strict in the ccnuma::check::json spirit: unknown
 * directives, malformed numbers, wrong op counts, duplicate or
 * out-of-order `ops` blocks and a missing `end` are all errors with a
 * line number, and so is a total `alloc` above kMaxTraceHeapBytes or
 * one processor's total `b` above kMaxTraceBusyCycles.
 * Semantic validity of op arguments is checked at replay time, not at
 * parse time — the parse answers "is this a trace", the replay answers
 * "does it run": TraceReplayApp::setup() rejects addresses outside the
 * replayed heap, and the engine rejects dangling barrier/lock indices.
 */

#ifndef CCNUMA_APPS_TRACE_HH
#define CCNUMA_APPS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "sim/recorder.hh"
#include "sim/stats.hh"

namespace ccnuma::apps {

/** One recorded operation of one simulated processor. */
struct TraceOp {
    sim::OpKind kind = sim::OpKind::Checkpoint;
    std::uint64_t arg = 0;

    bool operator==(const TraceOp&) const = default;
};

/** A complete recorded simulation input (see file comment). */
struct Trace {
    /** One machine-building call from App::setup(), in call order. */
    struct Setup {
        enum class Kind : std::uint8_t {
            Alloc,       ///< a = bytes
            Barrier,     ///< a = participants
            Lock,        ///< (no arguments)
            Place,       ///< a = addr, b = bytes, c = node
            PlaceAcross, ///< a = addr, b = bytes
        };
        Kind kind = Kind::Alloc;
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        std::uint64_t c = 0;

        bool operator==(const Setup&) const = default;
    };

    std::string app;  ///< Provenance label; may be empty.
    int procs = 0;
    std::vector<Setup> setup;
    std::vector<std::vector<TraceOp>> ops; ///< Indexed by processor.

    /// Total operations across processors.
    std::uint64_t totalOps() const;
    /// Render the canonical `ccnuma-trace v1` text.
    std::string serialize() const;
    /// FNV-1a 64 over the canonical text — the identity used in the
    /// ccnuma_serve result-cache key, as 16 lowercase hex digits.
    std::string hashHex() const;
};

/// Cap on a trace's summed `alloc` bytes. It bounds the heap, and with
/// it the host memory a replay's page table and directory can grow
/// to; the largest built-in workloads allocate tens of MB.
inline constexpr std::uint64_t kMaxTraceHeapBytes = 1ull << 30;

/// Cap on one processor's summed `b` cycles. It keeps simulated time
/// from wrapping; the largest golden sequential time is 4.4e8 cycles.
inline constexpr std::uint64_t kMaxTraceBusyCycles = 1ull << 40;

/** Outcome of parsing trace text: ok + trace, or an error. */
struct TraceParseResult {
    bool ok = false;
    std::string error; ///< "line N: message" when !ok.
    Trace trace;
};

/// Parse a complete `ccnuma-trace v1` document (strict; see file
/// comment).
TraceParseResult parseTrace(const std::string& text);

/** recordTrace result: the trace plus the recording run's metrics. */
struct RecordedTrace {
    Trace trace;
    sim::RunResult run; ///< The recording run (differential baseline).
};

/**
 * Run `app` on a machine configured by `cfg` with an operation
 * recorder attached, and return the captured trace together with the
 * recording run's own RunResult. Works for every app, including the
 * timing-variant ones (the recording bakes their dynamic decisions
 * into the streams). Mid-run page placement is not recordable and
 * throws; no registered app does it.
 */
RecordedTrace recordTrace(const sim::MachineConfig& cfg, App& app);

/**
 * Replays a Trace as an App: setup() re-issues the machine-building
 * calls, program() re-issues each processor's operation stream.
 * setup() throws std::invalid_argument for a place range outside the
 * heap allocated before it, and for a load, store, prefetch, fetch&op
 * or rmw address outside the whole replayed heap,
 * [Machine::kHeapBase, heap end).
 *
 * Replayed on a machine with the recording's config, the run is
 * bit-identical to the recorded one. Replayed on a different machine
 * (another protocol, directory format, latencies...) it is a what-if
 * experiment over the same workload — the machine must only agree on
 * the processor count.
 */
class TraceReplayApp : public App
{
  public:
    explicit TraceReplayApp(Trace t);

    /// "trace:<app>" when the trace carries a provenance label,
    /// "trace:<hashHex>" otherwise.
    std::string name() const override;
    void setup(sim::Machine& m) override;
    sim::Machine::Program program() override;

    const Trace& trace() const { return t_; }

  private:
    Trace t_;
    std::string name_;
    std::vector<sim::BarrierId> barriers_;
    std::vector<sim::LockId> locks_;
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_TRACE_HH
