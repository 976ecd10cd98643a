/**
 * @file
 * Volrend skeleton: ray casting through a shared volume with early ray
 * termination, image-block task queues and stealing. The paper's
 * observation: task stealing is effective on the Origin, so the SVM
 * restructuring (a better-balanced initial assignment that avoids
 * stealing) buys only a few percent; Volrend's scaling problem is that
 * available problem sizes are simply too small.
 */

#ifndef CCNUMA_APPS_VOLREND_APP_HH
#define CCNUMA_APPS_VOLREND_APP_HH

#include <memory>
#include <vector>

#include "apps/app.hh"
#include "apps/taskqueue.hh"

namespace ccnuma::apps {

struct VolrendConfig {
    int volDim = 256;            ///< Volume side (basic: 256^3 head).
    bool balancedInit = false;   ///< SVM restructuring: better initial
                                 ///< assignment, fewer steals.
    sim::Cycles cyclesPerSample = 170;
    std::uint64_t seed = 11;
};

class VolrendApp : public App
{
  public:
    explicit VolrendApp(const VolrendConfig& cfg) : cfg_(cfg) {}

    std::string name() const override
    {
        return cfg_.balancedInit ? "volrend-balanced" : "volrend";
    }
    void setup(sim::Machine& m) override;
    sim::Machine::Program program() override;

  private:
    VolrendConfig cfg_;
    int nprocs_ = 0;
    /// Per-pixel sample counts (shared input).
    std::shared_ptr<const std::vector<std::uint32_t>> samples_;
    std::unique_ptr<TaskQueues> queues_;
    sim::Addr volume_ = 0, image_ = 0;
    sim::BarrierId bar_;

    static constexpr int kBlock = 4; ///< Image block side in pixels.
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_VOLREND_APP_HH
