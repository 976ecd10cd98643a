/**
 * @file
 * Exhaustive reachability analysis (Murphi-style explicit-state BFS)
 * over the World's transition system, with canonical-state hashing,
 * symmetry reduction over processor permutation, and shortest-
 * counterexample extraction.
 *
 * Because exploration is breadth-first over canonical state classes,
 * the first invariant breach found is a *minimum-length* transition
 * script; it is replayed through a fresh engine before being reported,
 * so every counterexample is an executable witness, not a symbolic
 * artifact. `ccnuma_verify model` drives runCheck/runSweep.
 */

#ifndef CCNUMA_MODEL_CHECKER_HH
#define CCNUMA_MODEL_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "model/world.hh"
#include "sim/config.hh"

namespace ccnuma::model {

/** One exhaustive check: a protocol x directory format x P machine. */
struct CheckOptions {
    std::string protocol = "mesi";
    std::string dirFormat = "fullbv";
    int procs = 2;
    /// Stop (truncated, not verified) past this many canonical
    /// states; the default is far above any one-line state space.
    std::uint64_t maxStates = 1u << 20;
    /// Deliberate protocol corruption the search must catch.
    sim::CheckMutation mutation = sim::CheckMutation::None;
    /// Quotient by processor permutation. Forced off when a mutation
    /// is active: SkipInvalidation spares the *first* fan-out target,
    /// which breaks permutation equivariance, so mutated searches
    /// run the full concrete space (still tiny at P <= 4).
    bool symmetry = true;
};

/** Outcome of one exhaustive check. */
struct CheckResult {
    CheckOptions opts;
    std::uint64_t states = 0;      ///< canonical state classes reached
    std::uint64_t transitions = 0; ///< concrete transitions explored
    int depth = 0;                 ///< deepest BFS level expanded
    std::size_t symmetryOrder = 1; ///< |permutation group| applied
    bool truncated = false;        ///< hit maxStates before closure
    bool ok = false; ///< space exhausted, every invariant held

    // Violation report (ok == false && !invariant.empty()).
    std::string invariant; ///< first violated invariant's name
    std::string detail;    ///< human-readable breach description
    std::vector<Step> counterexample; ///< shortest breaching trace
    std::vector<std::string> script;  ///< narrated transition script
    /// The counterexample re-ran through a fresh engine and breached
    /// the same invariant (always true for reported violations; the
    /// checker refuses to report a witness it cannot replay).
    bool replayed = false;
};

/// Why `opts` names no machine the checker can explore: an unknown
/// protocol or dir-format, procs outside [1,8] (the exhaustive
/// regime), or a machine that fails MachineConfig::validate(). Empty
/// when it names one.
std::string configError(const CheckOptions& opts);

/// Exhaustively enumerate the reachable states of `opts`'s machine
/// and check every invariant at every state. A configError() comes
/// back as invariant "config" with the reason in `detail`.
CheckResult runCheck(const CheckOptions& opts);

/// The ISSUE's verification matrix: every {mesi,moesi,dragon} x
/// {fullbv,coarse:4,ptr:2} combo at each P in `procs`.
std::vector<CheckResult> runSweep(const std::vector<int>& procs,
                                  std::uint64_t maxStates,
                                  sim::CheckMutation mutation);

/// Multi-line human rendering (verdict, state counts, script).
std::string formatResult(const CheckResult& r);

/// JSON entry under "model/<protocol>/<dirFormat>/p<P>": counts
/// states/transitions/depth/symmetryOrder/ok, the violated invariant
/// and narrated script when breached.
void emit(core::MetricsSink& sink, const CheckResult& r);

} // namespace ccnuma::model

#endif // CCNUMA_MODEL_CHECKER_HH
