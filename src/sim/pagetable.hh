/**
 * @file
 * Simulated page table: page homing policies (manual/explicit,
 * first-touch, round-robin) and the dynamic page-migration engine that
 * models the Origin2000's hardware migration counters (Section 6.2).
 */

#ifndef CCNUMA_SIM_PAGETABLE_HH
#define CCNUMA_SIM_PAGETABLE_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

/**
 * Per-page state.
 *
 * Migration uses a heavy-hitter counter pair (candidate node + score) as
 * a compact stand-in for the Origin's per-page, per-node access counters:
 * the score rises when the candidate node accesses the page remotely and
 * decays on home-node accesses, triggering migration past a threshold.
 */
struct PageInfo {
    NodeId home = kNoNode;
    NodeId candidate = kNoNode;
    std::uint32_t score = 0;
    std::uint32_t migrations = 0;
};

/**
 * Page table for the whole simulated address space.
 *
 * The address space is a flat arena carved out by SharedRegion; pages are
 * materialized lazily on first reference.
 */
class PageTable
{
  public:
    PageTable(const MachineConfig& cfg, int num_nodes);

    /// Home node of the page containing `addr`, homing it on first touch.
    /// `toucher` is the node performing the access. Inline: this sits on
    /// the miss path of every access (with noteAccess below), where the
    /// call and the by-division page computation it replaced were
    /// measurable.
    NodeId
    home(Addr addr, NodeId toucher)
    {
        PageInfo& pi = info(addr);
        if (pi.home != kNoNode) [[likely]]
            return pi.home;
        return homeSlow(pi, toucher);
    }

    /// Explicitly home `bytes` starting at `addr` on `node` (the paper's
    /// "manual placement"). Overrides any policy for those pages.
    void place(Addr addr, std::uint64_t bytes, NodeId node);

    /// Distribute `bytes` from `addr` in contiguous per-node blocks, the
    /// canonical manual distribution for block-partitioned arrays.
    void placeBlocked(Addr addr, std::uint64_t bytes,
                      const std::vector<NodeId>& order);

    /// Record an access for the migration policy. Returns true when the
    /// page just migrated (caller charges MachineConfig::migrationCycles).
    bool
    noteAccess(Addr addr, NodeId accessor)
    {
        if (!migration_) [[likely]]
            return false;
        return noteAccessSlow(addr, accessor);
    }

    std::uint64_t totalMigrations() const { return totalMigrations_; }

    /// Number of pages currently homed at each node (placed pages only).
    std::vector<std::uint64_t> pagesPerNode() const;

  private:
    PageInfo&
    info(Addr addr)
    {
        const std::uint64_t pn = addr >> pageShift_;
        if (pn >= pages_.size()) [[unlikely]]
            pages_.resize(pn + 1);
        return pages_[pn];
    }
    NodeId homeSlow(PageInfo& pi, NodeId toucher);
    bool noteAccessSlow(Addr addr, NodeId accessor);

    const std::uint32_t pageBytes_;
    const int pageShift_;
    const Placement placement_;
    const bool migration_;
    const std::uint32_t migrationThreshold_;
    const int numNodes_;
    std::vector<PageInfo> pages_;
    std::uint64_t rrNext_ = 0;
    std::uint64_t totalMigrations_ = 0;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_PAGETABLE_HH
