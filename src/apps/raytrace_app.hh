/**
 * @file
 * Raytrace skeleton: tile task queues with stealing over a large,
 * read-shared, spatially diffuse scene working set (the paper's one
 * application that scales at its basic size). Includes the original
 * per-ray statistics lock that the SVM restructuring removes.
 */

#ifndef CCNUMA_APPS_RAYTRACE_APP_HH
#define CCNUMA_APPS_RAYTRACE_APP_HH

#include <memory>
#include <vector>

#include "apps/app.hh"
#include "apps/taskqueue.hh"

namespace ccnuma::apps {

struct RaytraceConfig {
    int imageSide = 128;    ///< Pixels per side ("ball" basic: 128).
    bool statsLock = true;  ///< Original per-ray statistics lock.
    sim::Cycles cyclesPerTest = 1400; ///< Busy per scene/grid read.
    std::uint64_t seed = 5;
};

class RaytraceApp : public App
{
  public:
    explicit RaytraceApp(const RaytraceConfig& cfg) : cfg_(cfg) {}

    std::string name() const override
    {
        return cfg_.statsLock ? "raytrace" : "raytrace-nostatslock";
    }
    void setup(sim::Machine& m) override;
    sim::Machine::Program program() override;

  private:
    RaytraceConfig cfg_;
    int nprocs_ = 0;
    /// Per-pixel test counts (shared input).
    std::shared_ptr<const std::vector<std::uint32_t>> work_;
    std::unique_ptr<TaskQueues> queues_;
    sim::Addr scene_ = 0, image_ = 0, stats_ = 0;
    std::uint64_t sceneLines_ = 0;
    sim::BarrierId bar_;
    sim::LockId statsLock_;

    static constexpr int kTile = 4; ///< Tile side in pixels.
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_RAYTRACE_APP_HH
