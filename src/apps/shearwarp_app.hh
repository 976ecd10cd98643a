/**
 * @file
 * Shear-Warp skeleton. Original version: the compositing phase
 * partitions the intermediate image in interleaved scanline chunks
 * (with stealing), and the warp phase partitions the *final* image --
 * so warp reads intermediate scanlines that other processors wrote
 * (loss of locality between phases, the paper's diagnosed bottleneck).
 * Restructured version (Jiang & Singh PPoPP'97): profile-balanced
 * *contiguous* compositing partitions, and each processor warps the
 * piece of the final image produced from its own intermediate
 * partition, restoring cross-phase locality.
 */

#ifndef CCNUMA_APPS_SHEARWARP_APP_HH
#define CCNUMA_APPS_SHEARWARP_APP_HH

#include <memory>
#include <vector>

#include "apps/app.hh"
#include "apps/taskqueue.hh"

namespace ccnuma::apps {

struct ShearWarpConfig {
    int volDim = 128;          ///< Volume & image side (basic: 256).
    bool restructured = false;
    sim::Cycles cyclesPerVoxel = 24;
    std::uint64_t seed = 13;
};

class ShearWarpApp : public App
{
  public:
    explicit ShearWarpApp(const ShearWarpConfig& cfg) : cfg_(cfg) {}

    std::string name() const override
    {
        return cfg_.restructured ? "shearwarp-locality" : "shearwarp";
    }
    void setup(sim::Machine& m) override;
    sim::Machine::Program program() override;

  private:
    ShearWarpConfig cfg_;
    int nprocs_ = 0;
    /// Per-scanline voxel work (shared input).
    std::shared_ptr<const std::vector<std::uint32_t>> work_;
    std::vector<int> scanOwner_;          ///< Compositor per scanline.
    std::vector<std::size_t> chunkStart_; ///< Restructured partitions.
    std::unique_ptr<TaskQueues> queues_;  ///< Original: chunk tasks.
    sim::Addr volume_ = 0, inter_ = 0, final_ = 0;
    sim::BarrierId bar_;

    static constexpr int kChunk = 1;  ///< Scanlines per task (original).
    static constexpr int kSubdiv = 8; ///< Segments per scanline (restr.).
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_SHEARWARP_APP_HH
