/**
 * @file
 * Clique-tree (junction-tree) belief propagation kernel underlying the
 * Infer application: a random clique tree with CPCS-like size skew,
 * exact sum-product message passing over small discrete potentials, and
 * per-clique cost metrics used by the partitioning strategies.
 */

#ifndef CCNUMA_KERNELS_BAYES_HH
#define CCNUMA_KERNELS_BAYES_HH

#include <cstdint>
#include <vector>

namespace ccnuma::kernels {

/** One clique: a table over `vars` binary variables. */
struct Clique {
    int parent = -1;
    std::vector<int> children;
    int vars = 2;               ///< Number of binary variables.
    std::vector<double> table;  ///< 2^vars potentials.
    /// Multiply-add work to absorb/emit one message.
    std::uint64_t cost() const
    {
        return static_cast<std::uint64_t>(table.size()) * vars;
    }
};

/** A rooted clique tree. */
struct CliqueTree {
    std::vector<Clique> cliques; ///< Index 0 is the root.
    /// Topological order (parents before children).
    std::vector<int> order;
};

/// Random clique tree: `n` cliques, variable counts skewed like CPCS
/// (many small cliques, a few large ones up to `maxVars`).
CliqueTree randomTree(int n, int max_vars, std::uint64_t seed);

/**
 * Exact two-phase (collect then distribute) sum-product propagation.
 * Each upward message marginalizes a child's table into its parent;
 * each downward message multiplies back. Returns the root's partition
 * sum (a positive scalar invariant to propagation order).
 */
double propagate(CliqueTree& tree);

/// Total multiply-add operations one propagation performs.
std::uint64_t propagationCost(const CliqueTree& tree);

} // namespace ccnuma::kernels

#endif // CCNUMA_KERNELS_BAYES_HH
