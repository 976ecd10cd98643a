#include "apps/barnes_app.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "apps/input_cache.hh"

namespace ccnuma::apps {

using namespace sim;
namespace kn = kernels;

std::string
BarnesApp::name() const
{
    switch (cfg_.variant) {
      case BarnesVariant::Original:
        return "barnes";
      case BarnesVariant::MergeTree:
        return "barnes-mergetree";
      case BarnesVariant::Spatial:
        return "barnes-spatial";
    }
    return "barnes";
}

/// Everything setup derives from (numBodies, seed, theta) alone.
struct BarnesInput {
    explicit BarnesInput(const BarnesConfig& cfg);

    std::vector<kn::Body> bodies;
    kn::Octree tree;                     ///< With moments computed.
    std::vector<int> order;              ///< Morton rank -> body.
    std::vector<std::vector<std::uint32_t>> visits; ///< body -> cells.
    std::vector<double> costInOrder;     ///< Morton rank -> visits.
    std::vector<std::size_t> cellRank;   ///< cell -> Morton rank.
    std::vector<std::uint8_t> cellDepth; ///< cell -> tree depth.
    std::vector<std::uint64_t> subBodies; ///< cell -> subtree bodies.
};

// ---- Host-side: real bodies, real tree, real traversal costs ----
BarnesInput::BarnesInput(const BarnesConfig& cfg)
    : bodies(kn::plummerBodies(cfg.numBodies, cfg.seed)),
      tree(bodies, 1.0)
{
    const std::uint64_t n = cfg.numBodies;
    tree.computeMoments(bodies);

    order = kn::mortonOrder(bodies, 1.0);
    visits.resize(n);
    costInOrder.resize(n);
    for (std::uint64_t r = 0; r < n; ++r) {
        const int b = order[r];
        visits[b].reserve(64);
        tree.force(bodies, b, cfg.theta, [&](int ci) {
            visits[b].push_back(static_cast<std::uint32_t>(ci));
        });
        costInOrder[r] = static_cast<double>(visits[b].size());
    }

    // Each cell's Morton rank among the bodies: where its center
    // falls in the body order (body_keys is sorted, as order is).
    const auto& cells = tree.cells();
    std::vector<std::uint64_t> body_keys(n);
    for (std::uint64_t r = 0; r < n; ++r)
        body_keys[r] = kn::mortonKey(bodies[order[r]].pos, 1.0, 10);
    cellRank.resize(cells.size());
    cellDepth.resize(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const std::uint64_t key =
            kn::mortonKey(cells[c].center, 1.0, 10);
        cellRank[c] =
            std::lower_bound(body_keys.begin(), body_keys.end(), key) -
            body_keys.begin();
        cellDepth[c] = static_cast<std::uint8_t>(
            std::min(255, tree.depthOf(static_cast<int>(c))));
    }

    // Bodies per cell (subtree-inclusive): leaves hold one body.
    subBodies.assign(cells.size(), 0);
    for (std::size_t c = cells.size(); c-- > 0;) {
        if (cells[c].body >= 0)
            subBodies[c] += 1;
        if (cells[c].parent >= 0)
            subBodies[cells[c].parent] += subBodies[c];
    }
}

void
BarnesApp::setup(Machine& m)
{
    nprocs_ = m.config().numProcs;
    const std::uint64_t n = cfg_.numBodies;

    std::uint64_t theta_bits = 0;
    std::memcpy(&theta_bits, &cfg_.theta, sizeof theta_bits);
    in_ = sharedInput<BarnesInput>(
        "n=" + std::to_string(n) + ",seed=" + std::to_string(cfg_.seed) +
            ",theta=" + std::to_string(theta_bits),
        [&] { return BarnesInput(cfg_); });
    const BarnesInput& in = *in_;
    const auto& order = in.order;

    const auto starts = kn::costzoneSplit(in.costInOrder, nprocs_);
    std::vector<int> body_owner(n, 0);
    myBodies_.assign(nprocs_, {});
    for (int p = 0; p < nprocs_; ++p)
        for (std::size_t r = starts[p]; r < starts[p + 1]; ++r) {
            body_owner[order[r]] = p;
            myBodies_[p].push_back(order[r]);
        }

    // Cell owner by space: map each cell's Morton rank onto the body
    // partition (used by Spatial placement/build and by moments).
    const auto& cells = in.tree.cells();
    cellOwner_.assign(cells.size(), 0);
    localCells_.assign(nprocs_, 0);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const int ow = kn::costzoneOwner(starts, in.cellRank[c]);
        cellOwner_[c] = ow;
        ++localCells_[ow];
    }

    // Spatial variant: the space is divided into whole subtrees
    // ("pieces"), recursively subdivided until no piece holds more
    // than ~n/(3P) bodies, then greedily assigned to processors by
    // body count. Pieces must stay whole subtrees, so balance is
    // imperfect -- the variant's load-balance cost.
    {
        const auto& sub_bodies = in.subBodies;
        const std::uint64_t cap =
            std::max<std::uint64_t>(1, n / (3 * nprocs_));
        // Recursively collect pieces from the root.
        std::vector<int> piece_roots;
        std::vector<int> stack{0};
        while (!stack.empty()) {
            const int c = stack.back();
            stack.pop_back();
            if (sub_bodies[c] > cap && cells[c].child[0] != -1) {
                for (const int ch : cells[c].child)
                    if (ch >= 0 && sub_bodies[ch] > 0)
                        stack.push_back(ch);
            } else if (sub_bodies[c] > 0) {
                piece_roots.push_back(c);
            }
        }
        // Greedy largest-first assignment to least-loaded processor.
        std::sort(piece_roots.begin(), piece_roots.end(),
                  [&](int a, int b) {
                      return sub_bodies[a] > sub_bodies[b];
                  });
        buildBodies_.assign(nprocs_, 0);
        std::vector<int> piece_owner(cells.size(), -1);
        for (const int root : piece_roots) {
            const int best = static_cast<int>(
                std::min_element(buildBodies_.begin(),
                                 buildBodies_.end()) -
                buildBodies_.begin());
            piece_owner[root] = best;
            buildBodies_[best] += sub_bodies[root];
        }
        // Each cell belongs to its nearest ancestor piece root (0 if
        // none); parents precede their children in the cell array.
        buildOwner_.assign(cells.size(), 0);
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const int parent = cells[c].parent;
            buildOwner_[c] = piece_owner[c] >= 0 ? piece_owner[c]
                             : parent >= 0      ? buildOwner_[parent]
                                                : 0;
        }
    }

    // ---- Simulated arenas ----
    bodyArena_ = m.alloc(n * 128);
    for (std::uint64_t b = 0; b < n; ++b)
        m.place(bodyArena_ + b * 128, 128,
                m.topology().nodeOfProcess(body_owner[b]));

    cellArena_ = m.alloc(cells.size() * 128);
    if (cfg_.variant == BarnesVariant::Spatial) {
        // Subtrees live with their space's owner.
        for (std::size_t c = 0; c < cells.size(); ++c)
            m.place(cellArena_ + c * 128, 128,
                    m.topology().nodeOfProcess(cellOwner_[c]));
    } else {
        // Globally shared tree: pages scatter round-robin (cells are
        // created by whoever inserts first; no useful locality).
        const int nodes = m.config().numNodes();
        const std::uint64_t pages =
            (cells.size() * 128 + m.config().pageBytes - 1) /
            m.config().pageBytes;
        for (std::uint64_t pg = 0; pg < pages; ++pg)
            m.place(cellArena_ + pg * m.config().pageBytes,
                    m.config().pageBytes,
                    static_cast<NodeId>(pg % nodes));
    }

    // Private per-proc tree arenas (MergeTree local build).
    localArena_ = m.alloc(static_cast<std::uint64_t>(nprocs_) *
                          (n / std::max(1, nprocs_) + 64) * 2 * 128);
    m.placeAcrossProcs(localArena_,
                       static_cast<std::uint64_t>(nprocs_) *
                           (n / std::max(1, nprocs_) + 64) * 2 * 128);

    bar_ = m.barrierCreate();
    cellLocks_.reserve(kLockGroups);
    for (int i = 0; i < kLockGroups; ++i)
        cellLocks_.push_back(m.lockCreate());
    mergeLock_ = m.lockCreate();
    mergeRank_ = std::make_shared<int>(0);
}

Machine::Program
BarnesApp::program()
{
    const BarnesConfig cfg = cfg_;
    const Addr bodyA = bodyArena_, cellA = cellArena_,
               localA = localArena_;
    const BarrierId bar = bar_;
    const LockId merge_lock = mergeLock_;
    auto merge_rank = mergeRank_;
    const std::shared_ptr<const BarnesInput> in = in_;
    const auto* my_bodies = &myBodies_;
    const auto* cell_owner = &cellOwner_;
    const auto* local_cells = &localCells_;
    const auto* build_owner = &buildOwner_;
    const auto* build_bodies = &buildBodies_;
    const auto* locks = &cellLocks_;
    const std::uint64_t n = cfg_.numBodies;

    return [=](Cpu& cpu) -> Task {
        const int P = cpu.nprocs();
        const int p = cpu.id();
        const auto& mine = (*my_bodies)[p];
        const kn::Octree* tree = &in->tree;
        const auto* visits = &in->visits;
        const auto* cell_depth = &in->cellDepth;
        auto body_line = [bodyA](std::uint64_t b) {
            return bodyA + b * 128;
        };
        auto cell_line = [cellA](std::uint32_t c) {
            return cellA + static_cast<Addr>(c) * 128;
        };
        auto lock_of = [&](std::uint32_t c) {
            return (*locks)[c % kLockGroups];
        };
        const std::uint64_t local_base =
            localA + static_cast<Addr>(p) * (n / P + 64) * 2 * 128;

        // ================= Phase 1: tree build =================
        //
        // Byte discipline inside the 128-byte cell record (so the
        // intended line-level sharing carries no same-byte data race):
        //   +0 / +64   geometry + creator-initialized state (written
        //              by the cell's unique creator, under its lock)
        //   +8 / +72   stable fields traversals read
        //   +32..+63   per-proc update slots (4 B x 8; the hot
        //              upper-cell scratch that bounces lines)
        //   +96..+127  child-pointer slot array (4 B x 8, written by
        //              each child's unique creator)
        if (cfg.variant == BarnesVariant::Original) {
            // Insert each body into the shared tree, reading the path
            // and locking/writing cells we modify.
            const auto& cells = tree->cells();
            for (const int b : mine) {
                const auto& path = tree->insertPath(b);
                for (std::size_t pi = 0; pi < path.size(); ++pi) {
                    const int ci = path[pi];
                    // A cell record (children, com, lock) spans two
                    // lines.
                    cpu.read(cell_line(ci) + 8);
                    cpu.read(cell_line(ci) + 72);
                    cpu.busy(12);
                    // Upper-level cells keep being modified (child
                    // slot installs, subdivisions) by every processor
                    // throughout the phase: fine-grained read-write
                    // sharing that bounces those lines machine-wide.
                    // Each proc writes its own 4-byte slot.
                    if ((*cell_depth)[ci] <= 4 && (b + ci) % 4 == 0)
                        cpu.write(cell_line(ci) + 32 + 4 * (p % 8));
                    if (tree->creatorOf(ci) == b) {
                        // We created this cell: lock it (the lock word
                        // lives in the cell record, so locking writes
                        // the cell line and invalidates all readers),
                        // write it, and install the child pointer into
                        // our octant slot of the parent (each slot has
                        // exactly one writer: the child's creator).
                        co_await cpu.acquire(lock_of(ci));
                        cpu.write(cell_line(ci));
                        cpu.write(cell_line(ci) + 64);
                        if (pi > 0) {
                            const int par = path[pi - 1];
                            int slot = 0;
                            for (int s = 0; s < 8; ++s)
                                if (cells[par].child[s] == ci)
                                    slot = s;
                            cpu.write(cell_line(par) + 96 + 4 * slot);
                        }
                        cpu.release(lock_of(ci));
                    }
                }
                // Attach the body at the final cell; the embedded
                // lock word makes the acquire itself write the line.
                const std::uint32_t leaf = path.back();
                co_await cpu.acquire(lock_of(leaf));
                cpu.write(cell_line(leaf));
                cpu.write(cell_line(leaf));
                cpu.release(lock_of(leaf));
                cpu.read(body_line(b));
                co_await cpu.checkpoint();
            }
        } else if (cfg.variant == BarnesVariant::MergeTree) {
            // Local build: private, communication-free.
            std::uint64_t lc = 0;
            for (const int b : mine) {
                const std::uint64_t len = tree->insertPath(b).size();
                cpu.busy(len * 14);
                cpu.write(local_base + (lc++ % (n / P + 64)) * 128);
                if (lc % 64 == 0)
                    co_await cpu.checkpoint();
            }
            // Merge into the global tree. Later mergers do more work:
            // rank is taken under a lock; work grows with rank.
            co_await cpu.acquire(merge_lock);
            const int rank = (*merge_rank)++;
            cpu.release(merge_lock);
            // Merge our subtree's cells into the global tree: read
            // and write each of our cells in the (page-scattered)
            // global arena, locking at subtree roots.
            const std::uint64_t tree_cells = tree->cells().size();
            std::uint64_t k = 0;
            for (std::uint64_t c = 0; c < tree_cells; ++c) {
                if ((*cell_owner)[c] != p)
                    continue;
                const auto ci = static_cast<std::uint32_t>(c);
                cpu.read(cell_line(ci));
                cpu.busy(40);
                if (k % 8 == 0) {
                    co_await cpu.acquire(lock_of(ci));
                    cpu.write(cell_line(ci));
                    cpu.release(lock_of(ci));
                } else {
                    cpu.write(cell_line(ci));
                }
                if (++k % 16 == 15)
                    co_await cpu.checkpoint();
            }
            // Later mergers collide with already-merged structure:
            // extra reads (often dirty in other caches) and extra
            // computation, growing with merge rank -- the imbalance
            // the paper describes.
            const std::uint64_t extra = static_cast<std::uint64_t>(
                std::max<std::uint64_t>(1, (*local_cells)[p]) *
                (1.5 * rank / std::max(1, P)));
            for (std::uint64_t e = 0; e < extra; ++e) {
                const std::uint32_t ci = static_cast<std::uint32_t>(
                    (static_cast<std::uint64_t>(p) * 2654435761u +
                     e * 40503u) % tree_cells);
                // Stable-field bytes: other procs' in-flight merge
                // writes target offset 0 of the same (dirty) lines.
                cpu.read(cell_line(ci) + 8);
                cpu.busy(30);
                if (e % 16 == 15)
                    co_await cpu.checkpoint();
            }
        } else { // Spatial
            // Proc 0 builds the P-leaf supertree; others wait.
            if (p == 0) {
                for (int k = 0; k < 2 * P; ++k) {
                    cpu.busy(60);
                    cpu.write(cell_line(static_cast<std::uint32_t>(
                        k % tree->cells().size())));
                    if (k % 32 == 31)
                        co_await cpu.checkpoint();
                }
            }
            co_await cpu.barrier(bar);
            // Private subtree build over our assigned *subtrees* --
            // insertion work proportional to the bodies in them (the
            // coarse pieces are imbalanced), writes to our own cells,
            // no locking or sharing.
            {
                std::uint64_t work = (*build_bodies)[p] * 60;
                while (work > 0) {
                    const std::uint64_t step =
                        work < 2000 ? work : 2000;
                    cpu.busy(step);
                    work -= step;
                    co_await cpu.checkpoint();
                }
            }
            std::uint64_t written = 0;
            const std::uint64_t tree_cells = tree->cells().size();
            for (std::uint64_t c = 0; c < tree_cells; ++c) {
                if ((*build_owner)[c] != p)
                    continue;
                cpu.busy(30);
                cpu.write(cell_line(static_cast<std::uint32_t>(c)));
                if (++written % 32 == 0)
                    co_await cpu.checkpoint();
            }
            // Attach to our unique supertree leaf: one write, no lock.
            // The link field at +64 is ours alone; the leaf's space
            // owner writes only the offset-0 bytes during its build.
            cpu.write(cell_line(static_cast<std::uint32_t>(p %
                tree->cells().size())) + 64);
        }
        co_await cpu.barrier(bar);

        // ================= Phase 2: moments (upward pass) ===========
        {
            const std::uint64_t tree_cells = tree->cells().size();
            std::uint64_t done = 0;
            const auto& cells = tree->cells();
            for (std::uint64_t c = 0; c < tree_cells; ++c) {
                if ((*cell_owner)[c] != p)
                    continue;
                // Parents read children (often written by other
                // processors in the build phase: dirty-remote misses).
                for (const int ch : cells[c].child)
                    if (ch >= 0)
                        cpu.read(cell_line(
                            static_cast<std::uint32_t>(ch)));
                cpu.busy(60);
                // Moments land at +64; the child reads above touch the
                // offset-0 geometry bytes, so concurrent upward-pass
                // work on neighboring subtrees stays byte-disjoint
                // (the real code orders it with per-cell counters).
                cpu.write(cell_line(static_cast<std::uint32_t>(c)) +
                          64);
                if (++done % 8 == 0)
                    co_await cpu.checkpoint();
            }
        }
        co_await cpu.barrier(bar);

        // ================= Phase 3: force calculation ===============
        {
            const auto& cells = tree->cells();
            for (const int b : mine) {
                const auto& vl = (*visits)[b];
                int k = 0;
                for (const std::uint32_t ci : vl) {
                    cpu.read(cell_line(ci));
                    // Direct body-body interactions also read the
                    // partner body's record (owned by another proc).
                    const int leaf_body = cells[ci].body;
                    if (leaf_body >= 0)
                        cpu.read(body_line(
                            static_cast<std::uint64_t>(leaf_body)));
                    cpu.busy(cfg.cyclesPerInteraction);
                    if (++k % 16 == 0)
                        co_await cpu.checkpoint();
                }
                // Accumulated force goes to the second half of the
                // body record; partner reads above fetch the position
                // bytes at offset 0 of the same line.
                cpu.write(body_line(b) + 64);
                co_await cpu.checkpoint();
            }
        }
        co_await cpu.barrier(bar);

        // ================= Phase 4: update positions ================
        for (const int b : mine) {
            cpu.read(body_line(b));
            cpu.busy(40);
            cpu.write(body_line(b));
            if (b % 64 == 0)
                co_await cpu.checkpoint();
        }
        co_await cpu.barrier(bar);
        co_return;
    };
}

} // namespace ccnuma::apps
