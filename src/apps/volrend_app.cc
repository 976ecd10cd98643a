#include "apps/volrend_app.hh"

#include <algorithm>
#include <string>

#include "apps/input_cache.hh"
#include "kernels/render.hh"

namespace ccnuma::apps {

using namespace sim;

namespace {

/// Host: real volume, per-pixel sample counts with early ray
/// termination (the load-imbalance profile). Depends on dim alone.
std::vector<std::uint32_t>
sampleCounts(int dim)
{
    const kernels::Volume vol(dim);
    std::vector<std::uint32_t> samples(static_cast<std::size_t>(dim) * dim,
                                       0);
    for (int y = 0; y < dim; ++y)
        for (int x = 0; x < dim; ++x) {
            float opacity = 0.0f;
            std::uint32_t cnt = 0;
            for (int z = 0; z < dim; ++z) {
                const float a = vol.density(x, y, z) / 255.0f * 0.25f;
                if (a > 0.0f) {
                    opacity += (1.0f - opacity) * a;
                    ++cnt;
                } // transparent voxels are skipped by the octree
                if (opacity > 0.95f)
                    break;
            }
            samples[static_cast<std::size_t>(y) * dim + x] = cnt;
        }
    return samples;
}

} // namespace

void
VolrendApp::setup(Machine& m)
{
    nprocs_ = m.config().numProcs;
    const int dim = cfg_.volDim;

    samples_ = sharedInput<std::vector<std::uint32_t>>(
        "volrend-samples,dim=" + std::to_string(dim),
        [dim] { return sampleCounts(dim); });
    const std::vector<std::uint32_t>& samples = *samples_;

    // Simulated volume: one byte per voxel, z-major slabs distributed
    // across processors.
    const std::uint64_t vol_bytes =
        static_cast<std::uint64_t>(dim) * dim * dim;
    volume_ = m.alloc(vol_bytes);
    m.placeAcrossProcs(volume_, vol_bytes);
    image_ = m.alloc(static_cast<std::uint64_t>(dim) * dim * 4);
    m.placeAcrossProcs(image_,
                       static_cast<std::uint64_t>(dim) * dim * 4);
    bar_ = m.barrierCreate();

    // Image-block tasks. Original: round-robin interleave. Balanced
    // variant: greedy assignment by measured block cost (fewer steals).
    queues_ = std::make_unique<TaskQueues>(m, nprocs_);
    const int bps = dim / kBlock;
    if (!cfg_.balancedInit) {
        for (int t = 0; t < bps * bps; ++t)
            queues_->push(t % nprocs_, t);
    } else {
        std::vector<std::uint64_t> load(nprocs_, 0);
        std::vector<std::pair<std::uint64_t, int>> blocks;
        for (int t = 0; t < bps * bps; ++t) {
            std::uint64_t cost = 0;
            const int bx = t % bps, by = t / bps;
            for (int y = by * kBlock; y < (by + 1) * kBlock; ++y)
                for (int x = bx * kBlock; x < (bx + 1) * kBlock; ++x)
                    cost += samples[static_cast<std::size_t>(y) * dim +
                                    x];
            blocks.emplace_back(cost, t);
        }
        std::sort(blocks.rbegin(), blocks.rend());
        for (const auto& [cost, t] : blocks) {
            const int p = static_cast<int>(
                std::min_element(load.begin(), load.end()) -
                load.begin());
            queues_->push(p, t);
            load[p] += cost;
        }
    }
}

Machine::Program
VolrendApp::program()
{
    const VolrendConfig cfg = cfg_;
    const Addr volume = volume_, image = image_;
    const BarrierId bar = bar_;
    TaskQueues* queues = queues_.get();
    const std::shared_ptr<const std::vector<std::uint32_t>> samples =
        samples_;

    return [=](Cpu& cpu) -> Task {
        const int dim = cfg.volDim;
        const int bps = dim / kBlock;

        for (;;) {
            int task;
            CCNUMA_RUN_NESTED(cpu, queues->dequeue(cpu, task));
            if (task < 0)
                break;
            const int bx = task % bps, by = task / bps;
            for (int y = by * kBlock; y < (by + 1) * kBlock; ++y) {
                for (int x = bx * kBlock; x < (bx + 1) * kBlock;
                     ++x) {
                    const std::uint32_t cnt =
                        (*samples)[static_cast<std::size_t>(y) * dim +
                                   x];
                    // A ray at (x, y) marches in z: voxel (x,y,z) is at
                    // offset z*dim^2 + y*dim + x -- every 4th sample a
                    // new line (tri-linear footprints share lines).
                    for (std::uint32_t s = 0; s < cnt; s += 4) {
                        cpu.read(volume +
                                 static_cast<Addr>(s) * dim * dim +
                                 static_cast<Addr>(y) * dim + x);
                        cpu.busy(4 * cfg.cyclesPerSample);
                        co_await cpu.checkpoint();
                    }
                    cpu.write(image +
                              static_cast<Addr>(y * dim + x) * 4);
                }
            }
            co_await cpu.checkpoint();
        }
        co_await cpu.barrier(bar);
        co_return;
    };
}

} // namespace ccnuma::apps
