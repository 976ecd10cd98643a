/**
 * @file
 * Sample sort: the paper's restructured parallel sorting algorithm.
 * Two local radix sorts around a splitter phase and an all-to-all copy
 * phase of stride-1 *remote reads* (instead of Radix's scattered remote
 * writes). Parallel efficiency is intrinsically capped near 50% because
 * local sorting happens twice.
 */

#ifndef CCNUMA_APPS_SAMPLESORT_APP_HH
#define CCNUMA_APPS_SAMPLESORT_APP_HH

#include <vector>

#include "apps/app.hh"

namespace ccnuma::apps {

struct SampleSortConfig {
    std::uint64_t numKeys = 1u << 22;
    int radixBits = 8;      ///< Digit width of the local radix sorts.
    int localPasses = 2;    ///< Simulated passes per local sort.
    bool prefetchCopy = false; ///< Prefetch in the copy phase (6.1).
    sim::Cycles cyclesPerKey = 12;
    std::uint64_t seed = 42;
};

class SampleSortApp : public App
{
  public:
    explicit SampleSortApp(const SampleSortConfig& cfg) : cfg_(cfg) {}

    std::string name() const override
    {
        return cfg_.prefetchCopy ? "samplesort-prefetch" : "samplesort";
    }
    void setup(sim::Machine& m) override;
    sim::Machine::Program program() override;

  private:
    SampleSortConfig cfg_;
    sim::Addr keys_ = 0, recv_ = 0, splitters_ = 0;
    sim::BarrierId bar_;
    /// seg_[q][b]: keys of source proc q falling in bucket b
    /// (host-computed from real sorted data).
    std::vector<std::vector<std::uint32_t>> seg_;
    int nprocs_ = 0;
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_SAMPLESORT_APP_HH
