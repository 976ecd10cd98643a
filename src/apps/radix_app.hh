/**
 * @file
 * SPLASH-2 Radix sort skeleton: per-pass local histogram, parallel
 * prefix over histograms, then the permutation phase whose temporally
 * scattered remote writes (and the resulting write-allocate fetches and
 * writebacks) are the application's large-scale bottleneck.
 */

#ifndef CCNUMA_APPS_RADIX_APP_HH
#define CCNUMA_APPS_RADIX_APP_HH

#include <vector>

#include "apps/app.hh"

namespace ccnuma::apps {

struct RadixConfig {
    std::uint64_t numKeys = 1u << 22;
    int radixBits = 8;       ///< Digit width; 256 buckets.
    int passes = 2;          ///< Sorting passes simulated.
    bool prefetchHist = false; ///< Prefetch in the prefix phase (6.1).
    sim::Cycles cyclesPerKey = 12; ///< Busy per key per phase touch.
    std::uint64_t seed = 42;
};

class RadixApp : public App
{
  public:
    explicit RadixApp(const RadixConfig& cfg) : cfg_(cfg) {}

    std::string name() const override
    {
        return cfg_.prefetchHist ? "radix-prefetch" : "radix";
    }
    void setup(sim::Machine& m) override;
    sim::Machine::Program program() override;

  private:
    RadixConfig cfg_;
    sim::Addr keysA_ = 0, keysB_ = 0, hists_ = 0;
    sim::BarrierId bar_;
    /// starts_[pass][digit * nprocs + proc]: offset of proc's chunk of
    /// that digit's keys in the pass's destination array (host-computed
    /// from the real keys), plus a final entry numKeys; a chunk's key
    /// count is the next entry minus its own.
    std::vector<std::vector<std::uint32_t>> starts_;
    int nprocs_ = 0;
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_RADIX_APP_HH
