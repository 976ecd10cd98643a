/**
 * @file
 * Barnes-Hut N-body kernels: octree construction, center-of-mass
 * moments, force evaluation with the opening-angle criterion, body
 * generators and the space/cost partitioning helpers that the three
 * parallel tree-build strategies of the paper rely on (original locked
 * insertion, MergeTree, Spatial supertree).
 */

#ifndef CCNUMA_KERNELS_NBODY_HH
#define CCNUMA_KERNELS_NBODY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "kernels/geom.hh"

namespace ccnuma::kernels {

struct Body {
    Vec3 pos;
    double mass = 1.0;
    Vec3 acc;
};

/** One octree cell; leaves hold a single body index. */
struct Cell {
    Vec3 center;
    double half = 0;        ///< Half the cell's side length.
    int child[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    int body = -1;          ///< Body index if this is a leaf.
    int parent = -1;
    double mass = 0;
    Vec3 com;
    bool isLeaf() const { return child[0] == -1 && body >= 0; }
    bool isEmptyLeaf() const
    {
        return child[0] == -1 && body == -1;
    }
};

/**
 * Sequential Barnes-Hut octree. Exposes the per-body insertion paths
 * and force-traversal visit sequences the simulator skeletons replay.
 */
class Octree
{
  public:
    /// Build over all bodies; the root covers [-half, half]^3.
    Octree(const std::vector<Body>& bodies, double half);

    /// Nodes visited when body b was inserted (root..final cell).
    const std::vector<int>& insertPath(int b) const
    {
        return paths_[b];
    }

    /// Bottom-up center-of-mass / total-mass computation.
    void computeMoments(const std::vector<Body>& bodies);

    /// Barnes-Hut force on body b with opening angle theta. Calls
    /// `visit(cellIdx)` for every cell examined; returns the number of
    /// body-cell interactions evaluated, accumulating into acc.
    int force(std::vector<Body>& bodies, int b, double theta,
              const std::function<void(int)>& visit);

    const std::vector<Cell>& cells() const { return cells_; }
    int root() const { return 0; }
    int depthOf(int cell) const;
    /// Body whose insertion created this cell (-1 for the root); the
    /// parallel tree-build skeletons use this to know which insertions
    /// write which cells.
    int creatorOf(int cell) const { return creator_[cell]; }

  private:
    int makeCell(Vec3 center, double half, int parent);
    int childIndexFor(const Cell& c, const Vec3& p) const;
    void insert(const std::vector<Body>& bodies, int b);

    std::vector<Cell> cells_;
    std::vector<std::vector<int>> paths_;
    std::vector<int> creator_;
    int curInserting_ = -1;
};

/// Plummer-like clustered distribution in [-1,1]^3 (deterministic).
std::vector<Body> plummerBodies(std::size_t n, std::uint64_t seed);

/// Uniform distribution in [-1,1]^3 (deterministic).
std::vector<Body> uniformBodies(std::size_t n, std::uint64_t seed);

/// 3-D Morton (Z-order) key of a position within [-half, half]^3,
/// `bitsPerDim` bits per dimension.
std::uint64_t mortonKey(const Vec3& p, double half, int bits_per_dim);

/// Order body indices by Morton key: the spatially-contiguous
/// assignment used for partitioning bodies among processors.
std::vector<int> mortonOrder(const std::vector<Body>& bodies,
                             double half);

/// Split an ordered body list into `parts` contiguous chunks with
/// approximately equal total `cost`; returns the start index of each
/// chunk (size parts+1, costzones-style partitioning).
std::vector<std::size_t>
costzoneSplit(const std::vector<double>& cost_in_order, int parts);

/// The part of a costzoneSplit() whose chunk holds position `rank`;
/// ranks at or past the last chunk's end belong to the last part.
/// Empty chunks own nothing. O(log parts).
int costzoneOwner(const std::vector<std::size_t>& starts,
                  std::size_t rank);

} // namespace ccnuma::kernels

#endif // CCNUMA_KERNELS_NBODY_HH
