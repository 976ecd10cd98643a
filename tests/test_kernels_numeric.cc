/**
 * @file
 * Correctness tests for the stencil (Ocean), N-body (Barnes-Hut) and
 * molecular-dynamics (Water) kernels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "kernels/nbody.hh"
#include "kernels/stencil.hh"
#include "kernels/water.hh"

using namespace ccnuma::kernels;

// ---------------- stencil ----------------

TEST(Stencil, ConvergesToBoundaryValue)
{
    // With constant boundary, the Laplace solution is constant.
    Grid g(16, 5.0);
    const int iters = sorSolve(g, 1.5, 1e-10, 5000);
    EXPECT_LT(iters, 5000);
    for (std::size_t i = 1; i <= 16; ++i)
        for (std::size_t j = 1; j <= 16; ++j)
            EXPECT_NEAR(g.at(i, j), 5.0, 1e-6);
}

TEST(Stencil, ResidualDecreasesMonotonically)
{
    Grid g(32, 1.0);
    double prev = laplaceResidual(g);
    for (int k = 0; k < 5; ++k) {
        for (int it = 0; it < 20; ++it)
            rbSweep(g, 1.2);
        const double r = laplaceResidual(g);
        EXPECT_LE(r, prev + 1e-12);
        prev = r;
    }
}

TEST(Stencil, SweepDeltaShrinks)
{
    Grid g(24, 2.0);
    double d1 = rbSweep(g, 1.0);
    for (int i = 0; i < 50; ++i)
        d1 = rbSweep(g, 1.0);
    const double d2 = rbSweep(g, 1.0);
    EXPECT_LT(d2, d1);
}

// ---------------- N-body ----------------

TEST(NBody, OctreeHoldsEveryBodyExactlyOnce)
{
    const auto bodies = uniformBodies(500, 3);
    Octree t(bodies, 1.0);
    std::multiset<int> found;
    for (const auto& c : t.cells())
        if (c.body >= 0)
            found.insert(c.body);
    EXPECT_EQ(found.size(), 500u);
    for (int b = 0; b < 500; ++b)
        EXPECT_EQ(found.count(b), 1u) << "body " << b;
}

TEST(NBody, InsertPathsStartAtRootAndDescend)
{
    const auto bodies = plummerBodies(200, 4);
    Octree t(bodies, 1.0);
    for (int b = 0; b < 200; ++b) {
        const auto& path = t.insertPath(b);
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.front(), 0);
        for (std::size_t i = 1; i < path.size(); ++i)
            EXPECT_EQ(t.cells()[path[i]].parent, path[i - 1])
                << "body " << b << " step " << i;
    }
}

TEST(NBody, MomentsConserveTotalMass)
{
    const auto bodies = plummerBodies(300, 5);
    Octree t(bodies, 1.0);
    t.computeMoments(bodies);
    double total = 0;
    for (const auto& b : bodies)
        total += b.mass;
    EXPECT_NEAR(t.cells()[0].mass, total, 1e-9);
}

TEST(NBody, ForceApproachesDirectSummationForSmallTheta)
{
    auto bodies = uniformBodies(128, 6);
    Octree t(bodies, 1.0);
    t.computeMoments(bodies);
    // Direct summation reference for body 0.
    Vec3 direct;
    for (int j = 1; j < 128; ++j) {
        const Vec3 d = bodies[j].pos - bodies[0].pos;
        const double r2 = d.norm2() + 1e-9;
        direct += d * (bodies[j].mass / (r2 * std::sqrt(r2)));
    }
    bodies[0].acc = Vec3{};
    t.force(bodies, 0, 0.05, nullptr); // tiny theta: near-exact
    EXPECT_NEAR(bodies[0].acc.x, direct.x,
                1e-3 * (std::abs(direct.x) + 1));
    EXPECT_NEAR(bodies[0].acc.y, direct.y,
                1e-3 * (std::abs(direct.y) + 1));
    EXPECT_NEAR(bodies[0].acc.z, direct.z,
                1e-3 * (std::abs(direct.z) + 1));
}

TEST(NBody, LargerThetaMeansFewerInteractions)
{
    auto bodies = plummerBodies(1000, 7);
    Octree t(bodies, 1.0);
    t.computeMoments(bodies);
    const int tight = t.force(bodies, 10, 0.3, nullptr);
    const int loose = t.force(bodies, 10, 1.2, nullptr);
    EXPECT_LT(loose, tight);
    EXPECT_GT(loose, 0);
}

TEST(NBody, MortonOrderGroupsNeighbors)
{
    const auto bodies = uniformBodies(512, 8);
    const auto order = mortonOrder(bodies, 1.0);
    // Adjacent bodies in Morton order are spatially close on average;
    // compare with the average distance of random pairs.
    double adj = 0, rnd = 0;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        adj += (bodies[order[i]].pos - bodies[order[i + 1]].pos)
                   .norm();
        rnd += (bodies[order[i]].pos -
                bodies[order[(i * 257 + 101) % order.size()]].pos)
                   .norm();
    }
    EXPECT_LT(adj, rnd * 0.5);
}

TEST(NBody, CostzoneSplitBalancesCost)
{
    std::vector<double> cost(1000);
    for (std::size_t i = 0; i < cost.size(); ++i)
        cost[i] = 1.0 + (i % 13);
    const auto starts = costzoneSplit(cost, 8);
    ASSERT_EQ(starts.size(), 9u);
    EXPECT_EQ(starts[0], 0u);
    EXPECT_EQ(starts[8], cost.size());
    double total = 0;
    for (const double c : cost)
        total += c;
    for (int p = 0; p < 8; ++p) {
        double part = 0;
        for (std::size_t i = starts[p]; i < starts[p + 1]; ++i)
            part += cost[i];
        EXPECT_NEAR(part, total / 8, total / 8 * 0.25) << "part " << p;
    }
}

TEST(NBody, CostzoneOwnerMatchesLinearScan)
{
    // Reference: scan every part for the last one whose chunk holds
    // `rank`, the final chunk also owning rank == end.
    const auto scan = [](const std::vector<std::size_t>& starts,
                         std::size_t rank) {
        const int parts = static_cast<int>(starts.size()) - 1;
        int ow = 0;
        for (int p = 0; p < parts; ++p)
            if (rank >= starts[p] &&
                rank < starts[p + 1] + (p == parts - 1 ? 1 : 0))
                ow = p;
        return ow;
    };
    std::uint64_t h = 12345;
    const auto next = [&h] {
        h = h * 6364136223846793005ull + 1442695040888963407ull;
        return h >> 33;
    };
    int empty_parts = 0;
    for (const int parts : {1, 3, 32, 256}) {
        for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{100},
                                    std::size_t{2048}}) {
            // Mostly small costs with rare huge spikes, and zeros: a
            // spike swallows several parts' shares, leaving them
            // empty.
            std::vector<double> cost(n);
            for (double& c : cost) {
                const std::uint64_t r = next() % 100;
                c = r < 10 ? 0.0 : r < 97 ? 1.0 + r % 7 : 5000.0;
            }
            const auto starts = costzoneSplit(cost, parts);
            for (int p = 0; p < parts; ++p)
                empty_parts += starts[p] == starts[p + 1];
            for (std::size_t rank = 0; rank <= n; ++rank)
                ASSERT_EQ(costzoneOwner(starts, rank), scan(starts, rank))
                    << "P=" << parts << " n=" << n << " rank=" << rank;
        }
    }
    EXPECT_GT(empty_parts, 0) << "empty partitions were exercised";
}

// ---------------- water ----------------

TEST(Water, SpatialMatchesNsquaredEnergy)
{
    auto a = latticeMolecules(216, 6.0, 11);
    auto b = a;
    const double cutoff = 1.5;
    const double ea = forcesNsquared(a, 6.0, cutoff);
    const double eb = forcesSpatial(b, 6.0, cutoff, 1.5);
    EXPECT_NEAR(ea, eb, std::abs(ea) * 1e-9 + 1e-9);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i].force.x, b[i].force.x, 1e-8);
        EXPECT_NEAR(a[i].force.y, b[i].force.y, 1e-8);
        EXPECT_NEAR(a[i].force.z, b[i].force.z, 1e-8);
    }
}

TEST(Water, NewtonsThirdLaw)
{
    auto mols = latticeMolecules(125, 5.0, 12);
    forcesNsquared(mols, 5.0, 1.4);
    EXPECT_LT(netForceError(mols), 1e-9);
}

TEST(Water, CellListCoversAllMolecules)
{
    const auto mols = latticeMolecules(343, 7.0, 13);
    const CellList cl(mols, 7.0, 1.4);
    std::size_t n = 0;
    const int cells = cl.cellsPerDim() * cl.cellsPerDim() *
                      cl.cellsPerDim();
    for (int c = 0; c < cells; ++c)
        n += cl.members(c).size();
    EXPECT_EQ(n, mols.size());
}

TEST(Water, NeighborsIncludeSelfAndAreUnique)
{
    const auto mols = latticeMolecules(64, 4.0, 14);
    const CellList cl(mols, 4.0, 1.0);
    const auto nb = cl.neighbors(5);
    EXPECT_NE(std::find(nb.begin(), nb.end(), 5), nb.end());
    std::set<int> uniq(nb.begin(), nb.end());
    EXPECT_EQ(uniq.size(), nb.size());
}
