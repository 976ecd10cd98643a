/**
 * @file
 * The SPLASH-2 FFT as a simulator skeleton: six-step sqrt(n) x sqrt(n)
 * 1-D FFT with blocked, staggered all-to-all transposes. Options cover
 * the paper's experiments: transpose staggering (Section 7.1 mapping),
 * software prefetch of remote transpose data (Section 6.1).
 */

#ifndef CCNUMA_APPS_FFT_APP_HH
#define CCNUMA_APPS_FFT_APP_HH

#include <vector>

#include "apps/app.hh"

namespace ccnuma::apps {

struct FftConfig {
    int logPoints = 20;       ///< n = 2^logPoints, must be even.
    bool stagger = true;      ///< Start transposing from proc id+1.
    bool prefetch = false;    ///< Prefetch remote transpose blocks.
    /// Fuse the first transpose into the row-FFT phase, spreading the
    /// all-to-all reads through computation instead of a bursty
    /// transpose phase (the paper tried this; it did not help).
    bool implicitTranspose = false;
    /// Busy cycles per point per 1-D FFT butterfly stage.
    sim::Cycles cyclesPerPoint = 24;
};

class FftApp : public App
{
  public:
    explicit FftApp(const FftConfig& cfg) : cfg_(cfg) {}

    std::string name() const override
    {
        return cfg_.implicitTranspose ? "fft-implicit"
               : !cfg_.stagger        ? "fft-nostagger"
               : cfg_.prefetch        ? "fft-prefetch"
                                      : "fft";
    }
    void setup(sim::Machine& m) override;
    sim::Machine::Program program() override;

  private:
    FftConfig cfg_;
    sim::Machine* m_ = nullptr;
    std::uint64_t rows_ = 0;
    sim::Addr a_ = 0, b_ = 0;
    sim::BarrierId bar_;
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_FFT_APP_HH
