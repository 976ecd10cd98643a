/**
 * @file
 * Network topology: hypercube router fabric with optional metarouters,
 * and process-to-processor mapping policies (Section 7 of the paper).
 *
 * The Origin2000 connects two processors to a node Hub, two nodes to a
 * router, and routers in a hypercube. Machines beyond one module (e.g.
 * the 128-processor machine = four 32-processor hypercube modules) join
 * modules through shared metarouters, which add latency and are a shared
 * contention point.
 */

#ifndef CCNUMA_SIM_TOPOLOGY_HH
#define CCNUMA_SIM_TOPOLOGY_HH

#include <cstddef>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

/** A route between two nodes, as seen by the latency/contention model. */
struct Route {
    int hops = 0;          ///< Hypercube router hops (within modules).
    int metaCrossings = 0; ///< Metarouter crossings (0 or 1 per direction).
    int metaRouter = -1;   ///< Which metarouter carries the crossing.
};

/**
 * Static topology of one simulated machine.
 *
 * Provides node/router geometry, shortest-route computation, and the
 * process->processor mapping permutation chosen by the configuration.
 */
class Topology
{
  public:
    explicit Topology(const MachineConfig& cfg);

    /// Node hosting a *physical* processor.
    NodeId nodeOfProc(ProcId p) const { return procNode_[p]; }
    /// Router attached to a node.
    RouterId routerOfNode(NodeId n) const
    {
        return n / cfg_.nodesPerRouter;
    }
    /// Hypercube module of a node.
    int moduleOfNode(NodeId n) const { return n / cfg_.nodesPerModule(); }

    /// Physical processor that runs logical process `proc`.
    ProcId physicalProc(ProcId process) const { return mapping_[process]; }
    /// Node that runs logical process `proc` (through the mapping).
    NodeId nodeOfProcess(ProcId process) const
    {
        return nodeOfProc(mapping_[process]);
    }

    /// Shortest route between two nodes. The geometry is immutable, so
    /// every pair is precomputed at construction and this is a table
    /// lookup — route() sits on the latency path of every remote
    /// transaction (millions of calls per run).
    Route
    route(NodeId from, NodeId to) const
    {
        return routeTab_[static_cast<std::size_t>(from) * numNodes_ + to];
    }
    /// Router hops between two nodes (metarouter crossings count as
    /// metaHopEquivalent hops for distance comparisons).
    int distance(NodeId from, NodeId to) const;

    int numNodes() const { return numNodes_; }
    int numRouters() const { return numNodes_ / cfg_.nodesPerRouter; }
    int numMetaRouters() const { return numMetaRouters_; }

    /// Replace the process->processor mapping with an explicit permutation
    /// (used by the mapping experiments of Section 7.1).
    void setMapping(std::vector<ProcId> perm);
    const std::vector<ProcId>& mapping() const { return mapping_; }

  private:
    void buildDefaultMapping();
    Route computeRoute(NodeId from, NodeId to) const;

    const MachineConfig cfg_;
    int numNodes_;
    int numMetaRouters_;
    std::vector<NodeId> procNode_;  ///< physical proc -> node
    std::vector<ProcId> mapping_;   ///< process -> physical proc
    std::vector<Route> routeTab_;   ///< numNodes_^2, from-major
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_TOPOLOGY_HH
