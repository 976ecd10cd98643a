/**
 * @file
 * Barnes-Hut skeleton with the paper's three tree-building strategies:
 *
 *  - Original: processes insert their bodies one by one into a globally
 *    shared tree, locking cells they modify. Cheap at 32p, but the
 *    tree-building phase's communication dominates at 128p.
 *  - MergeTree: each process builds a private tree over its own bodies
 *    (no communication), then merges it into the global tree; merging
 *    is imbalanced (later mergers do successively more work) but total
 *    communication drops.
 *  - Spatial: one process builds a P-leaf "supertree" over subspaces;
 *    every process builds its subtree privately and attaches it to its
 *    unique leaf without locking. Worse load balance, least
 *    communication: loses to MergeTree at 32p, wins at 128p.
 *
 * Force calculation uses costzone-style partitioning of Morton-ordered
 * bodies with per-body costs from a real Barnes-Hut traversal.
 */

#ifndef CCNUMA_APPS_BARNES_APP_HH
#define CCNUMA_APPS_BARNES_APP_HH

#include <memory>
#include <vector>

#include "apps/app.hh"
#include "kernels/nbody.hh"

namespace ccnuma::apps {

enum class BarnesVariant { Original, MergeTree, Spatial };

/// P-independent host input, shared by all three variants (see
/// barnes_app.cc and apps::sharedInput).
struct BarnesInput;

struct BarnesConfig {
    std::uint64_t numBodies = 16384;
    BarnesVariant variant = BarnesVariant::Original;
    double theta = 0.8;
    sim::Cycles cyclesPerInteraction = 220;
    std::uint64_t seed = 17;
};

class BarnesApp : public App
{
  public:
    explicit BarnesApp(const BarnesConfig& cfg) : cfg_(cfg) {}

    std::string name() const override;
    void setup(sim::Machine& m) override;
    sim::Machine::Program program() override;

  private:
    BarnesConfig cfg_;
    int nprocs_ = 0;
    std::shared_ptr<const BarnesInput> in_;
    std::vector<std::vector<int>> myBodies_; ///< proc -> bodies.
    std::vector<int> cellOwner_;          ///< cell -> proc (by space).
    std::vector<std::uint32_t> localCells_; ///< proc -> private cells.
    std::vector<int> buildOwner_;  ///< Spatial: cell -> subtree owner.
    std::vector<std::uint64_t> buildBodies_; ///< Spatial: proc -> bodies.

    sim::Addr bodyArena_ = 0, cellArena_ = 0, localArena_ = 0;
    sim::BarrierId bar_;
    std::vector<sim::LockId> cellLocks_;  ///< One per lock group.
    sim::LockId mergeLock_;
    std::shared_ptr<int> mergeRank_;

    static constexpr int kLockGroups = 512;
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_BARNES_APP_HH
