#include "kernels/nbody.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/rng.hh"

namespace ccnuma::kernels {

Octree::Octree(const std::vector<Body>& bodies, double half)
{
    cells_.reserve(bodies.size() * 2 + 16);
    makeCell(Vec3{}, half, -1);
    paths_.resize(bodies.size());
    for (std::size_t b = 0; b < bodies.size(); ++b)
        insert(bodies, static_cast<int>(b));
}

int
Octree::makeCell(Vec3 center, double half, int parent)
{
    Cell c;
    c.center = center;
    c.half = half;
    c.parent = parent;
    cells_.push_back(c);
    creator_.push_back(curInserting_);
    return static_cast<int>(cells_.size()) - 1;
}

int
Octree::childIndexFor(const Cell& c, const Vec3& p) const
{
    return (p.x >= c.center.x ? 1 : 0) | (p.y >= c.center.y ? 2 : 0) |
           (p.z >= c.center.z ? 4 : 0);
}

void
Octree::insert(const std::vector<Body>& bodies, int b)
{
    curInserting_ = b;
    std::vector<int>& path = paths_[b];
    int cur = 0;
    for (;;) {
        path.push_back(cur);
        Cell& c = cells_[cur];
        if (c.isEmptyLeaf()) {
            c.body = b;
            return;
        }
        if (c.isLeaf()) {
            // Split: push the resident body down, then continue.
            const int other = c.body;
            c.body = -1;
            for (int k = 0; k < 8; ++k) {
                const Vec3 off{(k & 1 ? 0.5 : -0.5) * c.half,
                               (k & 2 ? 0.5 : -0.5) * c.half,
                               (k & 4 ? 0.5 : -0.5) * c.half};
                // (Re-read `cells_[cur]` each time: makeCell may move
                // the vector.)
                const Vec3 ctr = cells_[cur].center + off;
                const double h = cells_[cur].half * 0.5;
                const int nc = makeCell(ctr, h, cur);
                cells_[cur].child[k] = nc;
            }
            Cell& cc = cells_[cur];
            const int oc = cc.child[childIndexFor(cc, bodies[other].pos)];
            cells_[oc].body = other;
            paths_[other].push_back(oc);
        }
        cur = cells_[cur].child[childIndexFor(cells_[cur],
                                              bodies[b].pos)];
    }
}

void
Octree::computeMoments(const std::vector<Body>& bodies)
{
    for (auto& c : cells_) {
        if (c.body >= 0) {
            c.mass = bodies[c.body].mass;
            c.com = bodies[c.body].pos;
        } else {
            c.mass = 0;
            c.com = Vec3{};
        }
    }
    // Children always have larger indices than parents, so a reverse
    // sweep accumulates bottom-up.
    for (int i = static_cast<int>(cells_.size()) - 1; i >= 0; --i) {
        Cell& c = cells_[i];
        if (c.child[0] != -1) {
            for (int k = 0; k < 8; ++k) {
                const Cell& ch = cells_[c.child[k]];
                c.mass += ch.mass;
                c.com += ch.com * ch.mass;
            }
            if (c.mass > 0)
                c.com *= 1.0 / c.mass;
        }
    }
}

int
Octree::depthOf(int cell) const
{
    int d = 0;
    while (cells_[cell].parent != -1) {
        cell = cells_[cell].parent;
        ++d;
    }
    return d;
}

int
Octree::force(std::vector<Body>& bodies, int b, double theta,
              const std::function<void(int)>& visit)
{
    // Leaf cells carry their body's mass lazily: seed them here.
    // (computeMoments must have run after leaves were seeded; see
    // seedLeafMoments in the implementation of the tests/apps.)
    int interactions = 0;
    const Vec3 pos = bodies[b].pos;
    std::vector<int> stack{0};
    while (!stack.empty()) {
        const int ci = stack.back();
        stack.pop_back();
        const Cell& c = cells_[ci];
        if (visit)
            visit(ci);
        if (c.isEmptyLeaf())
            continue;
        if (c.isLeaf()) {
            if (c.body == b)
                continue;
            const Vec3 d = bodies[c.body].pos - pos;
            const double r2 = d.norm2() + 1e-9;
            const double inv = 1.0 / (r2 * std::sqrt(r2));
            bodies[b].acc += d * (bodies[c.body].mass * inv);
            ++interactions;
            continue;
        }
        const Vec3 d = c.com - pos;
        const double dist = d.norm() + 1e-12;
        if (c.half * 2.0 / dist < theta && c.mass > 0) {
            const double r2 = dist * dist + 1e-9;
            const double inv = 1.0 / (r2 * dist);
            bodies[b].acc += d * (c.mass * inv);
            ++interactions;
        } else {
            for (int k = 0; k < 8; ++k)
                if (c.child[k] != -1)
                    stack.push_back(c.child[k]);
        }
    }
    return interactions;
}

std::vector<Body>
plummerBodies(std::size_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<Body> bodies(n);
    for (auto& b : bodies) {
        // Clustered radial distribution, clamped into the unit box.
        const double r = 0.5 / std::sqrt(
            std::pow(rng.uniform() * 0.9 + 1e-3, -2.0 / 3.0) - 1.0 + 1e-6);
        const double ctheta = 2.0 * rng.uniform() - 1.0;
        const double phi = 2.0 * 3.141592653589793 * rng.uniform();
        const double s = std::sqrt(1.0 - ctheta * ctheta);
        b.pos = Vec3{r * s * std::cos(phi), r * s * std::sin(phi),
                     r * ctheta};
        b.pos.x = std::clamp(b.pos.x, -0.99, 0.99);
        b.pos.y = std::clamp(b.pos.y, -0.99, 0.99);
        b.pos.z = std::clamp(b.pos.z, -0.99, 0.99);
        b.mass = 1.0 / static_cast<double>(n);
    }
    return bodies;
}

std::vector<Body>
uniformBodies(std::size_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<Body> bodies(n);
    for (auto& b : bodies) {
        b.pos = Vec3{rng.uniform() * 1.98 - 0.99,
                     rng.uniform() * 1.98 - 0.99,
                     rng.uniform() * 1.98 - 0.99};
        b.mass = 1.0 / static_cast<double>(n);
    }
    return bodies;
}

std::uint64_t
mortonKey(const Vec3& p, double half, int bits_per_dim)
{
    const double scale = (1u << bits_per_dim) / (2.0 * half);
    auto q = [&](double v) {
        const auto x = static_cast<std::int64_t>((v + half) * scale);
        return static_cast<std::uint64_t>(std::clamp<std::int64_t>(
            x, 0, (1 << bits_per_dim) - 1));
    };
    const std::uint64_t xs = q(p.x), ys = q(p.y), zs = q(p.z);
    std::uint64_t key = 0;
    for (int i = 0; i < bits_per_dim; ++i) {
        key |= ((xs >> i) & 1) << (3 * i);
        key |= ((ys >> i) & 1) << (3 * i + 1);
        key |= ((zs >> i) & 1) << (3 * i + 2);
    }
    return key;
}

std::vector<int>
mortonOrder(const std::vector<Body>& bodies, double half)
{
    std::vector<int> order(bodies.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    std::vector<std::uint64_t> keys(bodies.size());
    for (std::size_t i = 0; i < bodies.size(); ++i)
        keys[i] = mortonKey(bodies[i].pos, half, 10);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return keys[a] < keys[b]; });
    return order;
}

std::vector<std::size_t>
costzoneSplit(const std::vector<double>& cost_in_order, int parts)
{
    std::vector<std::size_t> starts(parts + 1, 0);
    double total = 0;
    for (const double c : cost_in_order)
        total += c;
    double acc = 0;
    int part = 1;
    for (std::size_t i = 0;
         i < cost_in_order.size() && part < parts; ++i) {
        acc += cost_in_order[i];
        while (part < parts && acc >= total * part / parts)
            starts[part++] = i + 1;
    }
    for (; part < parts; ++part)
        starts[part] = cost_in_order.size();
    starts[parts] = cost_in_order.size();
    return starts;
}

int
costzoneOwner(const std::vector<std::size_t>& starts, std::size_t rank)
{
    // The last chunk starting at or before `rank`; equal starts mean
    // empty chunks, and upper_bound steps past them to the one that
    // is not.
    const int parts = static_cast<int>(starts.size()) - 1;
    const int p = static_cast<int>(
        std::upper_bound(starts.begin(), starts.end(), rank) -
        starts.begin()) - 1;
    return std::clamp(p, 0, parts - 1);
}

} // namespace ccnuma::kernels
