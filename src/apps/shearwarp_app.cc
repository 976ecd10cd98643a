#include "apps/shearwarp_app.hh"

#include <cmath>
#include <string>

#include "apps/input_cache.hh"
#include "kernels/nbody.hh" // costzoneSplit
#include "kernels/render.hh"

namespace ccnuma::apps {

using namespace sim;

void
ShearWarpApp::setup(Machine& m)
{
    nprocs_ = m.config().numProcs;
    const int dim = cfg_.volDim;

    // Host: real compositing work profile (early termination skew).
    // Depends on dim alone.
    work_ = sharedInput<std::vector<std::uint32_t>>(
        "shearwarp-work,dim=" + std::to_string(dim), [dim] {
            const kernels::Volume vol(dim);
            std::vector<std::uint32_t> wps;
            kernels::shearWarpComposite(vol, 0.3, 0.15, wps);
            return wps;
        });
    const std::vector<std::uint32_t>& work = *work_;

    // Simulated arenas.
    const std::uint64_t vol_bytes =
        static_cast<std::uint64_t>(dim) * dim * dim;
    volume_ = m.alloc(vol_bytes);
    m.placeAcrossProcs(volume_, vol_bytes);
    inter_ = m.alloc(static_cast<std::uint64_t>(dim) * dim * 4);
    final_ = m.alloc(static_cast<std::uint64_t>(dim) * dim * 4);
    bar_ = m.barrierCreate();

    scanOwner_.assign(dim, 0);
    if (!cfg_.restructured) {
        // Interleaved chunks + stealing.
        queues_ = std::make_unique<TaskQueues>(m, nprocs_);
        const int chunks = dim / kChunk;
        for (int c = 0; c < chunks; ++c) {
            queues_->push(c % nprocs_, c);
            for (int k = 0; k < kChunk; ++k)
                scanOwner_[c * kChunk + k] = c % nprocs_;
        }
    } else {
        // Profile-balanced contiguous partitions. The real algorithm
        // balances at sub-scanline granularity: split each scanline
        // into kSubdiv segments and costzone over segments.
        // Segment cost covers both phases: compositing work (profile)
        // plus the warp's per-scanline cost (proportional to area).
        const double warp_weight = dim;
        std::vector<double> cost;
        cost.reserve(static_cast<std::size_t>(dim) * kSubdiv);
        for (int y = 0; y < dim; ++y)
            for (int s = 0; s < kSubdiv; ++s)
                cost.push_back((static_cast<double>(work[y]) +
                                warp_weight) /
                               kSubdiv);
        chunkStart_ = kernels::costzoneSplit(cost, nprocs_);
        for (int p = 0; p < nprocs_; ++p)
            for (std::size_t seg = chunkStart_[p];
                 seg < chunkStart_[p + 1]; ++seg)
                scanOwner_[seg / kSubdiv] = p; // majority-ish owner
    }
    // Intermediate image placed with its compositor; final image
    // block-partitioned (the warp writer owns it in both versions).
    for (int y = 0; y < dim; ++y)
        m.place(inter_ + static_cast<Addr>(y) * dim * 4,
                static_cast<std::uint64_t>(dim) * 4,
                m.topology().nodeOfProcess(scanOwner_[y]));
    m.placeAcrossProcs(final_, static_cast<std::uint64_t>(dim) * dim * 4);
}

Machine::Program
ShearWarpApp::program()
{
    const ShearWarpConfig cfg = cfg_;
    const Addr volume = volume_, inter = inter_, final_img = final_;
    const BarrierId bar = bar_;
    TaskQueues* queues = queues_.get();
    const std::shared_ptr<const std::vector<std::uint32_t>> work = work_;
    const auto* chunk_start = &chunkStart_;

    return [=](Cpu& cpu) -> Task {
        const int P = cpu.nprocs();
        const int p = cpu.id();
        const int dim = cfg.volDim;

        // ---- compositing: segment [num/den, (num+1)/den) of line y ----
        auto composite_line = [&](int y, int num, int den) -> Task {
            const std::uint32_t voxels = (*work)[y] / den;
            // Sheared voxel reads: contiguous runs within a scanline
            // plane; one line covers 128 voxels along x.
            for (std::uint32_t v = 0; v < voxels; v += 32) {
                // The sheared resample footprint of scanline y overlaps
                // that of y+1: adjacent scanlines share volume lines
                // (hence contiguous partitions reuse them in cache,
                // interleaved ones refetch them remotely).
                cpu.read(volume +
                         (static_cast<Addr>(v + num * voxels) * dim *
                              dim +
                          static_cast<Addr>(y / 2) * dim) %
                             (static_cast<Addr>(dim) * dim * dim));
                cpu.busy(32 * cfg.cyclesPerVoxel);
                co_await cpu.nestedCheckpoint();
            }
            const int px_b = dim * num / den, px_e = dim * (num + 1) / den;
            for (int x = px_b * 4; x < px_e * 4; x += 128)
                cpu.write(inter + static_cast<Addr>(y) * dim * 4 + x);
            co_return;
        };

        if (!cfg.restructured) {
            for (;;) {
                int task;
                CCNUMA_RUN_NESTED(cpu, queues->dequeue(cpu, task));
                if (task < 0)
                    break;
                for (int k = 0; k < kChunk; ++k)
                    CCNUMA_RUN_NESTED(cpu, composite_line(
                                               task * kChunk + k,
                                               0, 1));
            }
        } else {
            // Contiguous sub-scanline segments.
            for (std::size_t seg = (*chunk_start)[p];
                 seg < (*chunk_start)[p + 1]; ++seg)
                CCNUMA_RUN_NESTED(
                    cpu, composite_line(
                             static_cast<int>(seg / kSubdiv),
                             static_cast<int>(seg % kSubdiv), kSubdiv));
        }
        co_await cpu.barrier(bar);

        // ---- warp phase ----
        if (!cfg.restructured) {
            // Partition the FINAL image: read rotated intermediate
            // scanlines composited (mostly) by other processors.
            const auto [yb, ye] = blockRange(dim, P, p);
            for (std::uint64_t y = yb; y < ye; ++y) {
                // A final row maps to ~2 intermediate rows.
                for (int s = 0; s < 2; ++s) {
                    const int iy =
                        static_cast<int>((y + s * 3 + dim / 16) %
                                         dim);
                    for (int x = 0; x < dim * 4; x += 128)
                        cpu.read(inter + static_cast<Addr>(iy) * dim *
                                             4 + x);
                }
                cpu.busy(static_cast<Cycles>(dim) * 10);
                for (int x = 0; x < dim * 4; x += 128)
                    cpu.write(final_img + y * dim * 4 + x);
                co_await cpu.checkpoint();
            }
        } else {
            // Each processor warps its OWN intermediate partition into
            // the corresponding final-image piece: local reads.
            for (std::size_t y = (*chunk_start)[p] / kSubdiv;
                 y < ((*chunk_start)[p + 1] + kSubdiv - 1) / kSubdiv &&
                 y < static_cast<std::size_t>(dim);
                 ++y) {
                for (int x = 0; x < dim * 4; x += 128)
                    cpu.read(inter + static_cast<Addr>(y) * dim * 4 +
                             x);
                cpu.busy(static_cast<Cycles>(dim) * 10);
                // A boundary scanline whose segments straddle a
                // partition split is warped by both owners; each
                // writes only its own segments' pixels, modeled as a
                // per-proc byte slot within the shared output lines.
                for (int x = 0; x < dim * 4; x += 128)
                    cpu.write(final_img +
                              ((static_cast<Addr>(y) + dim / 16) %
                               dim) * dim * 4 + x + 4 * (p % 8));
                co_await cpu.checkpoint();
            }
        }
        co_await cpu.barrier(bar);
        co_return;
    };
}

} // namespace ccnuma::apps
