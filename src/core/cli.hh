/**
 * @file
 * Shared command-line handling for the example binaries and ccnuma_paper.
 * Every driver understands the same flags:
 *
 *   --trace=FILE   capture + export an observability trace
 *                  (env fallback: CCNUMA_TRACE)
 *   --json=FILE    dump machine-readable metrics via core::MetricsSink
 *                  (env fallback: CCNUMA_JSON)
 *   --jobs=N       StudyRunner worker threads; 0 = one per host core
 *                  (env fallback: CCNUMA_JOBS)
 *   --seed=N       seed for randomized components (mapping
 *                  permutations, stress programs); env fallback:
 *                  CCNUMA_SEED
 *   --epoch-cycles=N  epoch length for interval metrics, in cycles
 *                  (0 = the TraceConfig default); tunes the time
 *                  resolution of epoch series and dashboards without
 *                  recompiling. Env fallback: CCNUMA_EPOCH
 *   --protocol=P   coherence protocol: mesi | moesi | dragon
 *                  (env fallback: CCNUMA_PROTOCOL)
 *   --dir-format=F directory sharer format: fullbv | coarse:K | ptr:N
 *                  (env fallback: CCNUMA_DIR)
 *
 * The protocol/directory selections are applied to a
 * sim::MachineConfig with applyMachine(); a value that does not parse
 * is reported through `malformed` and the machine default is kept.
 *
 * Flags beat environment variables. Numeric flag values are parsed
 * strictly: a malformed value (e.g. --jobs=abc) is reported in
 * `malformed` and the default is kept — warnUnknown() surfaces both
 * malformed values and unrecognized flags. Anything else starting with
 * "--" is collected in `unknown` (drivers with extra flags consume
 * them via takeFlag()/takeSwitch()/takeU64() before calling
 * warnUnknown()); bare words are positional arguments.
 */

#ifndef CCNUMA_CORE_CLI_HH
#define CCNUMA_CORE_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ccnuma::sim {
struct MachineConfig;
}

namespace ccnuma::core::cli {

struct Options {
    std::string traceFile;
    std::string jsonFile;
    int jobs = 1;
    std::uint64_t seed = 1;
    /// Epoch length override for interval metrics; 0 = keep the
    /// sim::TraceConfig default (drivers apply it to
    /// cfg.trace.epochCycles when non-zero).
    std::uint64_t epochCycles = 0;
    /// Coherence protocol name ("mesi" | "moesi" | "dragon"); empty =
    /// keep the MachineConfig default. Applied by applyMachine().
    std::string protocol;
    /// Directory format ("fullbv" | "coarse:K" | "ptr:N"); empty =
    /// keep the MachineConfig default. Applied by applyMachine().
    std::string dirFormat;
    std::vector<std::string> positional;
    std::vector<std::string> unknown;
    /// Flags whose numeric value did not parse ("--jobs=abc"); the
    /// field keeps its default when this happens.
    std::vector<std::string> malformed;

    /// positional[i] or `fallback` when absent.
    std::string positionalOr(std::size_t i,
                             const std::string& fallback) const
    {
        return i < positional.size() ? positional[i] : fallback;
    }
    /// positional[i] parsed as u64, or `fallback` when absent.
    std::uint64_t positionalOr(std::size_t i,
                               std::uint64_t fallback) const;

    /// Consume "--name=value" from `unknown`: removes it and returns
    /// true with `value` set. Drivers with extra flags call this
    /// before warnUnknown().
    bool takeFlag(const std::string& name, std::string& value);
    /// Consume a bare "--name" switch from `unknown`.
    bool takeSwitch(const std::string& name);
    /// Consume "--name=N" as a u64 into `out`; true when the flag is
    /// absent or well formed. A malformed value keeps `out`, goes into
    /// `malformed` (so warnUnknown() reports it) and returns false.
    bool takeU64(const std::string& name, std::uint64_t& out);
};

/// Parse argv (argv[0] skipped) with environment-variable fallbacks.
Options parse(int argc, char** argv);

/// Strict u64 parse of a full string; returns false on any trailing
/// garbage, sign, overflow or empty input.
bool parseU64(const std::string& text, std::uint64_t& out);

/// Strict parse of a comma-separated u64 list ("1,8,32"); returns
/// false (leaving `out` untouched) on any malformed element, empty
/// element or empty input.
bool parseU64List(const std::string& text,
                  std::vector<std::uint64_t>& out);

/// Apply the --protocol / --dir-format selections to `cfg`
/// (cfg.protocol / cfg.dirFormat). A value that does not parse keeps
/// the machine default and is appended to opt.malformed, so a later
/// warnUnknown() surfaces it; returns false in that case. Call once
/// per driver, before warnUnknown().
bool applyMachine(Options& opt, sim::MachineConfig& cfg);

/// Print a warning per unknown flag and per malformed numeric value;
/// returns true if there were none of either.
bool warnUnknown(const Options& opt);

} // namespace ccnuma::core::cli

#endif // CCNUMA_CORE_CLI_HH
