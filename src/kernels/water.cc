#include "kernels/water.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/rng.hh"

namespace ccnuma::kernels {

std::vector<Molecule>
latticeMolecules(std::size_t n, double box, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<Molecule> mols(n);
    const auto side = static_cast<std::size_t>(
        std::ceil(std::cbrt(static_cast<double>(n))));
    const double spacing = box / static_cast<double>(side);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t x = i % side;
        const std::size_t y = (i / side) % side;
        const std::size_t z = i / (side * side);
        auto jitter = [&] { return (rng.uniform() - 0.5) * 0.2 * spacing; };
        mols[i].pos = Vec3{(x + 0.5) * spacing + jitter(),
                           (y + 0.5) * spacing + jitter(),
                           (z + 0.5) * spacing + jitter()};
        auto wrap = [&](double v) {
            v = std::fmod(v, box);
            return v < 0 ? v + box : v;
        };
        mols[i].pos = Vec3{wrap(mols[i].pos.x), wrap(mols[i].pos.y),
                           wrap(mols[i].pos.z)};
    }
    return mols;
}

namespace {

/// Minimum-image displacement b - a in a periodic box.
Vec3
minImage(const Vec3& a, const Vec3& b, double box)
{
    auto mi = [box](double d) {
        if (d > 0.5 * box)
            d -= box;
        else if (d < -0.5 * box)
            d += box;
        return d;
    };
    return Vec3{mi(b.x - a.x), mi(b.y - a.y), mi(b.z - a.z)};
}

/// Accumulate the LJ pair interaction i<->j; returns pair energy.
double
pairInteract(Molecule& mi_, Molecule& mj, const Vec3& d)
{
    const double r2 = std::max(d.norm2(), 1e-6);
    const double inv2 = 1.0 / r2;
    const double inv6 = inv2 * inv2 * inv2;
    // F = 24 (2 inv12 - inv6) / r^2 * d
    const double fmag = 24.0 * (2.0 * inv6 * inv6 - inv6) * inv2;
    mi_.force -= d * fmag;
    mj.force += d * fmag;
    return 4.0 * (inv6 * inv6 - inv6);
}

} // namespace

double
forcesNsquared(std::vector<Molecule>& mols, double box, double cutoff)
{
    const double c2 = cutoff * cutoff;
    double energy = 0;
    const std::size_t n = mols.size();
    // SPLASH-2 Water-Nsquared: each molecule interacts with the n/2
    // following molecules (each pair counted exactly once).
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 1; k <= n / 2; ++k) {
            const std::size_t j = (i + k) % n;
            if (n % 2 == 0 && k == n / 2 && i >= n / 2)
                continue; // avoid double-counting antipodal pairs
            const Vec3 d = minImage(mols[i].pos, mols[j].pos, box);
            if (d.norm2() < c2)
                energy += pairInteract(mols[i], mols[j], d);
        }
    }
    return energy;
}

CellList::CellList(const std::vector<Molecule>& mols, double box,
                   double cell_size)
    : dim_(std::max(1, static_cast<int>(box / cell_size))),
      box_(box),
      inv_(dim_ / box)
{
    members_.resize(static_cast<std::size_t>(dim_) * dim_ * dim_);
    for (std::size_t i = 0; i < mols.size(); ++i)
        members_[cellOf(mols[i].pos)].push_back(static_cast<int>(i));
}

int
CellList::cellOf(const Vec3& p) const
{
    auto idx = [this](double v) {
        int k = static_cast<int>(v * inv_);
        return std::clamp(k, 0, dim_ - 1);
    };
    return (idx(p.z) * dim_ + idx(p.y)) * dim_ + idx(p.x);
}

std::vector<int>
CellList::neighbors(int cell) const
{
    const int x = cell % dim_;
    const int y = (cell / dim_) % dim_;
    const int z = cell / (dim_ * dim_);
    std::vector<int> out;
    out.reserve(27);
    for (int dz = -1; dz <= 1; ++dz)
        for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx) {
                const int nx = (x + dx + dim_) % dim_;
                const int ny = (y + dy + dim_) % dim_;
                const int nz = (z + dz + dim_) % dim_;
                const int c = (nz * dim_ + ny) * dim_ + nx;
                if (std::find(out.begin(), out.end(), c) == out.end())
                    out.push_back(c);
            }
    return out;
}

double
forcesSpatial(std::vector<Molecule>& mols, double box, double cutoff,
              double cell_size)
{
    assert(cell_size >= cutoff);
    const CellList cl(mols, box, cell_size);
    const double c2 = cutoff * cutoff;
    double energy = 0;
    const int ncells = cl.cellsPerDim() * cl.cellsPerDim() *
                       cl.cellsPerDim();
    for (int c = 0; c < ncells; ++c) {
        for (const int nb : cl.neighbors(c)) {
            for (const int i : cl.members(c)) {
                for (const int j : cl.members(nb)) {
                    if (j <= i)
                        continue; // each pair once
                    const Vec3 d =
                        minImage(mols[i].pos, mols[j].pos, box);
                    if (d.norm2() < c2)
                        energy += pairInteract(mols[i], mols[j], d);
                }
            }
        }
    }
    return energy;
}

double
netForceError(const std::vector<Molecule>& mols)
{
    Vec3 net;
    for (const auto& m : mols)
        net += m.force;
    return std::max({std::abs(net.x), std::abs(net.y), std::abs(net.z)});
}

} // namespace ccnuma::kernels
