#include "model/checker.hh"

#include <deque>
#include <unordered_set>
#include <utility>

namespace ccnuma::model {

namespace {

/// A frontier node: the shortest trace that reaches `snap` (whose
/// canonical class is in the visited set).
struct Node {
    std::vector<Step> trace;
    GlobalState snap;
};

/// Narrate `trace` by replaying it step by step: one line per step
/// with the resulting abstract state, ending with the violation.
std::vector<std::string>
narrate(const sim::MachineConfig& cfg, const std::vector<Step>& trace)
{
    std::vector<std::string> out;
    World w(cfg);
    out.push_back("start: " + w.snapshot().describe());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const bool ok = w.apply(trace[i]);
        std::string line = "step " + std::to_string(i + 1) + ": " +
                           describeStep(trace[i]);
        line += ok ? "  -> " + w.snapshot().describe()
                   : "  -> VIOLATION " + w.violation();
        out.push_back(std::move(line));
        if (!ok)
            break;
    }
    return out;
}

} // namespace

std::string
configError(const CheckOptions& opts)
{
    sim::ProtocolConfig proto;
    sim::DirectoryConfig fmt;
    if (!proto.parse(opts.protocol))
        return "unknown protocol '" + opts.protocol + "'";
    if (!fmt.parse(opts.dirFormat))
        return "unknown dir-format '" + opts.dirFormat + "'";
    if (opts.procs < 1 || opts.procs > 8)
        return "procs must be in [1,8] (exhaustive regime)";
    return World::makeConfig(proto, fmt, opts.procs, opts.mutation)
        .validate();
}

CheckResult
runCheck(const CheckOptions& opts)
{
    CheckResult r;
    r.opts = opts;

    if (std::string err = configError(opts); !err.empty()) {
        r.invariant = "config";
        r.detail = std::move(err);
        return r;
    }
    sim::ProtocolConfig proto;
    sim::DirectoryConfig fmt;
    proto.parse(opts.protocol);
    fmt.parse(opts.dirFormat);
    const sim::MachineConfig cfg =
        World::makeConfig(proto, fmt, opts.procs, opts.mutation);

    // Mutations may break permutation equivariance (see CheckOptions);
    // fall back to the concrete space.
    const bool sym =
        opts.symmetry && opts.mutation == sim::CheckMutation::None;
    std::vector<std::vector<int>> perms;
    if (sym) {
        perms = symmetryGroup(fmt, opts.procs);
    } else {
        std::vector<int> id(static_cast<std::size_t>(opts.procs));
        for (int p = 0; p < opts.procs; ++p)
            id[static_cast<std::size_t>(p)] = p;
        perms.push_back(std::move(id));
    }
    r.symmetryOrder = perms.size();

    const auto report = [&](std::vector<Step> trace,
                            const World& breached) {
        r.invariant = breached.invariant();
        r.detail = breached.violation();
        r.counterexample = std::move(trace);
        // Replay through a fresh engine: a reported witness must be
        // executable and must breach the same invariant again.
        World confirm(cfg);
        confirm.replay(r.counterexample);
        r.replayed = !confirm.violation().empty() &&
                     confirm.invariant() == r.invariant;
        r.script = narrate(cfg, r.counterexample);
        r.ok = false;
    };

    std::unordered_set<std::string> visited;
    std::deque<Node> queue;
    {
        World w0(cfg);
        Node init;
        init.snap = w0.snapshot();
        visited.insert(canonicalKey(init.snap, perms));
        queue.push_back(std::move(init));
        r.states = 1;
    }

    while (!queue.empty()) {
        Node node = std::move(queue.front());
        queue.pop_front();
        if (static_cast<int>(node.trace.size()) > r.depth)
            r.depth = static_cast<int>(node.trace.size());

        // Enabled set is a pure function of the abstract state:
        // Read/Write always, Evict iff the copy is valid, else
        // Prefetch — mirrored from World::enabledSteps.
        for (std::size_t pi = 0; pi < node.snap.procs.size(); ++pi) {
            const sim::ProcId p = static_cast<sim::ProcId>(pi);
            const bool valid = node.snap.procs[pi].cache !=
                               sim::LineState::Invalid;
            const OpKind third =
                valid ? OpKind::Evict : OpKind::Prefetch;
            for (const OpKind k :
                 {OpKind::Read, OpKind::Write, third}) {
                World w(cfg);
                if (w.replay(node.trace) != node.trace.size()) {
                    // Cannot happen: the prefix was violation-free
                    // when enqueued and the engine is deterministic.
                    report(node.trace, w);
                    return r;
                }
                if (!(w.snapshot() == node.snap)) {
                    r.invariant = "determinism";
                    r.detail = "replaying a visited trace reached a "
                               "different state";
                    r.counterexample = node.trace;
                    r.script = narrate(cfg, node.trace);
                    return r;
                }
                std::vector<Step> trace = node.trace;
                trace.push_back({p, k});
                ++r.transitions;
                if (!w.apply({p, k})) {
                    report(std::move(trace), w);
                    return r;
                }
                GlobalState snap = w.snapshot();
                if (visited
                        .insert(canonicalKey(snap, perms))
                        .second) {
                    ++r.states;
                    if (r.states > opts.maxStates) {
                        r.truncated = true;
                        r.detail = "state cap reached before closure";
                        return r;
                    }
                    queue.push_back(
                        {std::move(trace), std::move(snap)});
                }
            }
        }
    }
    r.ok = true;
    return r;
}

std::vector<CheckResult>
runSweep(const std::vector<int>& procs, std::uint64_t maxStates,
         sim::CheckMutation mutation)
{
    static const char* kProtocols[] = {"mesi", "moesi", "dragon"};
    static const char* kFormats[] = {"fullbv", "coarse:4", "ptr:2"};
    std::vector<CheckResult> out;
    for (const char* proto : kProtocols)
        for (const char* fmt : kFormats)
            for (const int p : procs) {
                CheckOptions o;
                o.protocol = proto;
                o.dirFormat = fmt;
                o.procs = p;
                o.maxStates = maxStates;
                o.mutation = mutation;
                out.push_back(runCheck(o));
            }
    return out;
}

std::string
formatResult(const CheckResult& r)
{
    std::string out = "model " + r.opts.protocol + " x " +
                      r.opts.dirFormat + " P=" +
                      std::to_string(r.opts.procs) + ": ";
    if (r.ok) {
        out += "verified, " + std::to_string(r.states) + " states, " +
               std::to_string(r.transitions) + " transitions, depth " +
               std::to_string(r.depth) + " (symmetry x" +
               std::to_string(r.symmetryOrder) + ")\n";
        return out;
    }
    if (r.truncated) {
        out += "TRUNCATED after " + std::to_string(r.states) +
               " states (" + r.detail + ")\n";
        return out;
    }
    out += "VIOLATION of '" + r.invariant + "' in " +
           std::to_string(r.counterexample.size()) +
           " steps (explored " + std::to_string(r.states) +
           " states)\n";
    out += "  " + r.detail + "\n";
    for (const std::string& line : r.script)
        out += "    " + line + "\n";
    out += r.replayed
               ? "  counterexample replays through the engine\n"
               : "  WARNING: counterexample did not replay\n";
    return out;
}

void
emit(core::MetricsSink& sink, const CheckResult& r)
{
    const std::string label = "model/" + r.opts.protocol + "/" +
                              r.opts.dirFormat + "/p" +
                              std::to_string(r.opts.procs);
    sink.addText(label, "protocol", r.opts.protocol);
    sink.addText(label, "dirFormat", r.opts.dirFormat);
    sink.addCount(label, "procs",
                  static_cast<std::uint64_t>(r.opts.procs));
    sink.addCount(label, "states", r.states);
    sink.addCount(label, "transitions", r.transitions);
    sink.addCount(label, "depth",
                  static_cast<std::uint64_t>(r.depth));
    sink.addCount(label, "symmetryOrder",
                  static_cast<std::uint64_t>(r.symmetryOrder));
    sink.addCount(label, "ok", r.ok ? 1 : 0);
    sink.addCount(label, "truncated", r.truncated ? 1 : 0);
    if (!r.ok && !r.invariant.empty()) {
        sink.addText(label, "invariant", r.invariant);
        sink.addText(label, "detail", r.detail);
        sink.addCount(label, "counterexampleSteps",
                      r.counterexample.size());
        sink.addCount(label, "replayed", r.replayed ? 1 : 0);
        for (std::size_t i = 0; i < r.script.size(); ++i)
            sink.addText(label, "script" + std::to_string(i),
                         r.script[i]);
    }
}

} // namespace ccnuma::model
