/**
 * @file
 * Molecular-dynamics kernels underlying Water-Nsquared and
 * Water-Spatial: Lennard-Jones pairwise interactions computed both by
 * the O(n^2) half-pairs method (Nsquared) and by a 3-D cell list
 * (Spatial). Both must agree on energy and forces within a cutoff.
 */

#ifndef CCNUMA_KERNELS_WATER_HH
#define CCNUMA_KERNELS_WATER_HH

#include <cstdint>
#include <vector>

#include "kernels/geom.hh"

namespace ccnuma::kernels {

struct Molecule {
    Vec3 pos;
    Vec3 force;
};

/// Molecules on a perturbed cubic lattice inside [0, box)^3.
std::vector<Molecule> latticeMolecules(std::size_t n, double box,
                                       std::uint64_t seed);

/// O(n^2) half-pairs evaluation within `cutoff`; accumulates forces,
/// returns total potential energy. Minimum-image periodic boundary.
double forcesNsquared(std::vector<Molecule>& mols, double box,
                      double cutoff);

/** 3-D cell list over [0, box)^3. */
class CellList
{
  public:
    CellList(const std::vector<Molecule>& mols, double box,
             double cell_size);

    int cellsPerDim() const { return dim_; }
    int cellOf(const Vec3& p) const;
    const std::vector<int>& members(int cell) const
    {
        return members_[cell];
    }
    /// The 27 (wrapped) neighbor cells of `cell`, including itself.
    std::vector<int> neighbors(int cell) const;

  private:
    int dim_;
    double box_;
    double inv_;
    std::vector<std::vector<int>> members_;
};

/// Cell-list evaluation; must match forcesNsquared for
/// cell_size >= cutoff. Returns potential energy.
double forcesSpatial(std::vector<Molecule>& mols, double box,
                     double cutoff, double cell_size);

/// Max component of the net force (should be ~0 by Newton's 3rd law).
double netForceError(const std::vector<Molecule>& mols);

} // namespace ccnuma::kernels

#endif // CCNUMA_KERNELS_WATER_HH
