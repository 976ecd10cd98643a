#include "apps/raytrace_app.hh"

#include <string>

#include "apps/input_cache.hh"
#include "kernels/render.hh"

namespace ccnuma::apps {

using namespace sim;

void
RaytraceApp::setup(Machine& m)
{
    nprocs_ = m.config().numProcs;
    // Per-ray work comes from a real trace over a fixed scene (a grid
    // accelerator keeps per-ray cost roughly size-independent on the
    // real code); the *dataset footprint* -- the diffuse, read-shared
    // working set -- scales with the problem size.
    const int side = cfg_.imageSide;
    const std::uint64_t seed = cfg_.seed;
    work_ = sharedInput<std::vector<std::uint32_t>>(
        "raytrace-work,side=" + std::to_string(side) +
            ",seed=" + std::to_string(seed),
        [side, seed] {
            const auto scene = kernels::randomScene(64, seed);
            return kernels::traceImage(scene, side, 2, nullptr);
        });

    const int scale = cfg_.imageSide / 128 > 0 ? cfg_.imageSide / 128 : 1;
    sceneLines_ = 64ull * 1024 * scale * scale; // ~8 MB at 128^2
    scene_ = m.alloc(sceneLines_ * 128);
    // Scene pages round-robin across nodes (read-shared data).
    {
        const int nodes = m.config().numNodes();
        const std::uint64_t pages =
            (sceneLines_ * 128 + m.config().pageBytes - 1) /
            m.config().pageBytes;
        for (std::uint64_t pg = 0; pg < pages; ++pg)
            m.place(scene_ + pg * m.config().pageBytes,
                    m.config().pageBytes,
                    static_cast<NodeId>(pg % nodes));
    }
    image_ = m.alloc(static_cast<std::uint64_t>(cfg_.imageSide) *
                     cfg_.imageSide * 4);
    m.placeAcrossProcs(image_,
                       static_cast<std::uint64_t>(cfg_.imageSide) *
                           cfg_.imageSide * 4);
    stats_ = m.alloc(128);
    m.place(stats_, 128, 0);
    bar_ = m.barrierCreate();
    statsLock_ = m.lockCreate();

    // Tile tasks, interleaved over processors.
    queues_ = std::make_unique<TaskQueues>(m, nprocs_);
    const int tiles_per_side = cfg_.imageSide / kTile;
    const int tiles = tiles_per_side * tiles_per_side;
    for (int t = 0; t < tiles; ++t)
        queues_->push(t % nprocs_, t);
}

Machine::Program
RaytraceApp::program()
{
    const RaytraceConfig cfg = cfg_;
    const Addr scene = scene_, image = image_, stats = stats_;
    const std::uint64_t scene_lines = sceneLines_;
    const BarrierId bar = bar_;
    const LockId stats_lock = statsLock_;
    TaskQueues* queues = queues_.get();
    const std::shared_ptr<const std::vector<std::uint32_t>> work = work_;

    return [=](Cpu& cpu) -> Task {
        const int side = cfg.imageSide;
        const int tiles_per_side = side / kTile;

        for (;;) {
            int task;
            CCNUMA_RUN_NESTED(cpu, queues->dequeue(cpu, task));
            if (task < 0)
                break;
            const int tx = task % tiles_per_side;
            const int ty = task / tiles_per_side;
            for (int py = ty * kTile; py < (ty + 1) * kTile; ++py) {
                for (int px = tx * kTile; px < (tx + 1) * kTile;
                     ++px) {
                    const std::uint32_t tests =
                        (*work)[static_cast<std::size_t>(py) * side +
                                px];
                    // Traverse the scene/grid: scattered reads over
                    // the shared scene (grid cells, object data,
                    // shading tables) -- several lines per test.
                    const std::uint32_t reads = tests * 4 + 1;
                    std::uint64_t h = static_cast<std::uint64_t>(
                                          py * side + px) *
                                      2654435761u;
                    for (std::uint32_t r = 0; r < reads; ++r) {
                        h = h * 6364136223846793005ull + 1442695040888963407ull;
                        cpu.read(scene + (h % scene_lines) * 128);
                        cpu.busy(cfg.cyclesPerTest);
                        co_await cpu.checkpoint();
                    }
                    cpu.write(image + static_cast<Addr>(py * side +
                                                        px) * 4);
                    if (cfg.statsLock) {
                        co_await cpu.acquire(stats_lock);
                        cpu.write(stats);
                        cpu.release(stats_lock);
                    }
                    co_await cpu.checkpoint();
                }
            }
        }
        co_await cpu.barrier(bar);
        co_return;
    };
}

} // namespace ccnuma::apps
