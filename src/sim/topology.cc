#include "sim/topology.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <random>
#include <stdexcept>

namespace ccnuma::sim {

Topology::Topology(const MachineConfig& cfg)
    : cfg_(cfg),
      numNodes_(cfg.numNodes()),
      numMetaRouters_(cfg.hasMetaRouters() ? 8 : 0)
{
    const int ppn = cfg_.oneProcPerNode ? 1 : cfg_.procsPerNode;
    procNode_.resize(cfg_.numProcs);
    for (int p = 0; p < cfg_.numProcs; ++p)
        procNode_[p] = p / ppn;
    buildDefaultMapping();
    routeTab_.resize(static_cast<std::size_t>(numNodes_) * numNodes_);
    for (NodeId f = 0; f < numNodes_; ++f)
        for (NodeId t = 0; t < numNodes_; ++t)
            routeTab_[static_cast<std::size_t>(f) * numNodes_ + t] =
                computeRoute(f, t);
}

void
Topology::buildDefaultMapping()
{
    mapping_.resize(cfg_.numProcs);
    std::iota(mapping_.begin(), mapping_.end(), 0);
    switch (cfg_.mapping) {
      case Mapping::Linear:
        break;
      case Mapping::Random: {
        std::mt19937_64 rng(cfg_.mappingSeed);
        std::shuffle(mapping_.begin(), mapping_.end(), rng);
        break;
      }
      case Mapping::PairedRandom: {
        // Keep process pairs (2i, 2i+1) on one node, shuffle node order.
        const int ppn = cfg_.oneProcPerNode ? 1 : cfg_.procsPerNode;
        if (ppn == 1) {
            std::mt19937_64 rng(cfg_.mappingSeed);
            std::shuffle(mapping_.begin(), mapping_.end(), rng);
            break;
        }
        const int groups = cfg_.numProcs / ppn;
        std::vector<int> order(groups);
        std::iota(order.begin(), order.end(), 0);
        std::mt19937_64 rng(cfg_.mappingSeed);
        std::shuffle(order.begin(), order.end(), rng);
        for (int g = 0; g < groups; ++g)
            for (int k = 0; k < ppn; ++k)
                mapping_[g * ppn + k] = order[g] * ppn + k;
        break;
      }
    }
}

void
Topology::setMapping(std::vector<ProcId> perm)
{
    if (static_cast<int>(perm.size()) != cfg_.numProcs)
        throw std::invalid_argument("mapping permutation size mismatch");
    mapping_ = std::move(perm);
}

Route
Topology::computeRoute(NodeId from, NodeId to) const
{
    Route r;
    if (from == to)
        return r;
    const RouterId rf = routerOfNode(from);
    const RouterId rt = routerOfNode(to);
    if (rf == rt) {
        r.hops = 1; // across the shared router
        return r;
    }
    const int routersPerModule =
        std::max(1, cfg_.nodesPerModule() / cfg_.nodesPerRouter);
    const int mf = rf / routersPerModule;
    const int mt = rt / routersPerModule;
    const unsigned lf = static_cast<unsigned>(rf % routersPerModule);
    const unsigned lt = static_cast<unsigned>(rt % routersPerModule);
    if (mf == mt) {
        // Hypercube within a module: one hop to enter the fabric plus the
        // Hamming distance between router coordinates.
        r.hops = 1 + std::popcount(lf ^ lt);
    } else {
        // Cross-module: route to the module's metarouter port, cross the
        // shared metarouter, then descend in the remote module.
        r.hops = 2 + std::popcount(lf ^ lt);
        r.metaCrossings = 1;
        // Metarouter selection: the paper's machine has eight
        // metarouters; traffic between corresponding router positions of
        // two modules shares one of them.
        r.metaRouter = static_cast<int>((lf ^ (lt << 1)) % 8);
        if (numMetaRouters_ > 0)
            r.metaRouter %= numMetaRouters_;
        else
            r.metaRouter = -1, r.metaCrossings = 0;
    }
    return r;
}

int
Topology::distance(NodeId from, NodeId to) const
{
    const Route r = route(from, to);
    return r.hops + 3 * r.metaCrossings;
}

} // namespace ccnuma::sim
