#include "sim/config.hh"

#include <bit>
#include <sstream>

namespace ccnuma::sim {

std::string
MachineConfig::validate() const
{
    std::ostringstream err;
    if (numProcs < 1 || numProcs > kMaxProcs)
        err << "numProcs must be in [1," << kMaxProcs << "]; ";
    // Range checks come before the divisions that need them nonzero.
    if (procsPerNode < 1)
        err << "procsPerNode must be >= 1; ";
    else if (!oneProcPerNode && numProcs > procsPerNode &&
             numProcs % procsPerNode != 0)
        err << "numProcs must be a multiple of procsPerNode; ";
    if (nodesPerRouter < 1)
        err << "nodesPerRouter must be >= 1; ";
    const bool line_ok = std::has_single_bit(lineBytes);
    if (!line_ok)
        err << "lineBytes must be a power of two; ";
    if (pageBytes == 0)
        err << "pageBytes must be nonzero; ";
    else if (line_ok && pageBytes % lineBytes != 0)
        err << "pageBytes must be a multiple of lineBytes; ";
    if (cacheAssoc < 1)
        err << "cacheAssoc must be >= 1; ";
    else if (line_ok && cacheBytes % (static_cast<std::uint64_t>(
                                          lineBytes) * cacheAssoc) != 0)
        err << "cacheBytes must divide into lineBytes*assoc sets; ";
    else if (line_ok && !std::has_single_bit(numSets()))
        err << "cache set count must be a power of two; ";
    if (quantum == 0)
        err << "quantum must be nonzero; ";
    if (dirFormat.format != DirFormat::FullBitVector &&
        dirFormat.param < 1)
        err << "dirFormat param (coarse:K / ptr:N) must be >= 1; ";
    if (trace.any() && trace.epochCycles == 0)
        err << "trace.epochCycles must be nonzero; ";
    if (procsPerNode >= 1 && nodesPerRouter >= 1 &&
        numProcs > procsPerNode && !oneProcPerNode &&
        numNodes() % nodesPerRouter != 0 && numNodes() > 1)
        err << "node count must be a multiple of nodesPerRouter; ";
    return err.str();
}

MachineConfig
MachineConfig::origin2000(int numProcs)
{
    MachineConfig cfg;
    cfg.numProcs = numProcs;
    return cfg;
}

MachineConfig
MachineConfig::uniprocessor()
{
    return origin2000(1).baseline();
}

MachineConfig
MachineConfig::baseline() const
{
    MachineConfig seq = *this;
    seq.numProcs = 1;
    seq.oneProcPerNode = false;
    // The baseline is only timed; don't trace it (tracing never changes
    // timing, this just avoids pointless capture cost).
    seq.trace = {};
    return seq;
}

} // namespace ccnuma::sim
