#include "apps/radix_app.hh"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "kernels/sort.hh"

namespace ccnuma::apps {

using namespace sim;

namespace {
constexpr std::uint64_t kKeysPerLine = 32; // 4-byte keys, 128 B lines
} // namespace

void
RadixApp::setup(Machine& m)
{
    nprocs_ = m.config().numProcs;
    const std::uint64_t bytes = cfg_.numKeys * 4;
    keysA_ = m.alloc(bytes);
    keysB_ = m.alloc(bytes);
    m.placeAcrossProcs(keysA_, bytes);
    m.placeAcrossProcs(keysB_, bytes);
    // Per-proc histogram arena: one page per processor.
    hists_ = m.alloc(static_cast<std::uint64_t>(nprocs_) *
                     m.config().pageBytes);
    m.placeAcrossProcs(hists_,
                       static_cast<std::uint64_t>(nprocs_) *
                           m.config().pageBytes);
    bar_ = m.barrierCreate();

    // Host-side: run the real radix passes to obtain per-proc,
    // per-digit counts for each pass (drives permutation addressing and
    // captures real load imbalance), kept as chunk start offsets.
    if (cfg_.numKeys > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("radix: more than 2^32-1 keys");
    auto keys = kernels::randomKeys(cfg_.numKeys, cfg_.seed);
    const int radix = 1 << cfg_.radixBits;
    starts_.assign(cfg_.passes, std::vector<std::uint32_t>(
                                    static_cast<std::size_t>(radix) *
                                        nprocs_ + 1, 0));
    std::vector<std::uint32_t> next, hist(radix);
    for (int pass = 0; pass < cfg_.passes; ++pass) {
        std::vector<std::uint32_t>& st = starts_[pass];
        for (int p = 0; p < nprocs_; ++p) {
            // Count into one proc's histogram (cache-resident), then
            // scatter it into the (digit, proc) layout.
            std::fill(hist.begin(), hist.end(), 0);
            const auto [b, e] = blockRange(cfg_.numKeys, nprocs_, p);
            for (std::uint64_t i = b; i < e; ++i)
                ++hist[(keys[i] >> (pass * cfg_.radixBits)) & (radix - 1)];
            for (int d = 0; d < radix; ++d)
                st[static_cast<std::size_t>(d) * nprocs_ + p] = hist[d];
        }
        // Counts -> exclusive prefix in (digit, proc) order; the final
        // entry becomes numKeys.
        std::exclusive_scan(st.begin(), st.end(), st.begin(),
                            std::uint32_t{0});
        kernels::radixPass(keys, next, pass * cfg_.radixBits,
                           cfg_.radixBits);
        keys.swap(next);
    }
}

Machine::Program
RadixApp::program()
{
    const RadixConfig cfg = cfg_;
    const Addr keysA = keysA_, keysB = keysB_, hists = hists_;
    const BarrierId bar = bar_;
    const auto* starts = &starts_;
    const std::uint32_t page = 16384;

    return [cfg, keysA, keysB, hists, bar, starts, page](
               Cpu& cpu) -> Task {
        const int P = cpu.nprocs();
        const int p = cpu.id();
        const int radix = 1 << cfg.radixBits;
        const auto [key_b, key_e] = blockRange(cfg.numKeys, P, p);
        const std::uint64_t hist_lines =
            (static_cast<std::uint64_t>(radix) * 8 + 127) / 128;
        auto hist_line = [&](int proc, std::uint64_t l) {
            return hists + static_cast<Addr>(proc) * page + l * 128;
        };

        Addr src = keysA, dst = keysB;
        for (int pass = 0; pass < cfg.passes; ++pass) {
            // --- Phase 1: local histogram over our key block. ---
            for (Addr a = src + key_b * 4; a < src + key_e * 4;
                 a += 128) {
                cpu.read(a);
                cpu.busy(kKeysPerLine * cfg.cyclesPerKey);
                co_await cpu.checkpoint();
            }
            for (std::uint64_t l = 0; l < hist_lines; ++l)
                cpu.write(hist_line(p, l));
            co_await cpu.barrier(bar);

            // --- Phase 2: parallel prefix over histograms (tree). ---
            // Each tree level is double-buffered within the histogram
            // line: level k reads the half-word the previous level (or
            // phase 1, for k = 0) wrote -- ordered by the per-level
            // barrier -- and writes the other half-word, so partner
            // reads never touch the bytes their owner is updating in
            // the same level. Line-granular traffic is unchanged.
            int level = 0;
            for (int stride = 1; stride < P; stride *= 2, ++level) {
                const int partner = p ^ stride;
                const Addr rd = static_cast<Addr>(4 * (level % 2));
                const Addr wr = static_cast<Addr>(4 * ((level + 1) % 2));
                if (partner < P) {
                    for (std::uint64_t l = 0; l < hist_lines; ++l) {
                        if (cfg.prefetchHist && l + 1 < hist_lines)
                            cpu.prefetch(hist_line(partner, l + 1));
                        cpu.read(hist_line(partner, l) + rd);
                    }
                    cpu.busy(radix * 2);
                    for (std::uint64_t l = 0; l < hist_lines; ++l)
                        cpu.write(hist_line(p, l) + wr);
                }
                co_await cpu.barrier(bar);
            }

            // --- Phase 3: permutation. Keys stream from our block and
            // scatter into 2^bits open destination chunks; a simulated
            // write is issued each time a chunk cursor enters a new
            // line (write-allocate + later writeback traffic). ---
            // Global start offset and key count of our chunk for each
            // digit (our chunk ends where the next one in (digit, proc)
            // order starts).
            const std::vector<std::uint32_t>& st = (*starts)[pass];
            std::vector<std::uint64_t> cursor(radix);
            std::vector<std::uint32_t> remaining(radix);
            for (int d = 0; d < radix; ++d) {
                const std::size_t at = static_cast<std::size_t>(d) * P + p;
                cursor[d] = st[at];
                remaining[d] = st[at + 1] - st[at];
            }
            // Walk digits round-robin to interleave chunk streams the
            // way in-order key processing does (keys of different
            // digits alternate), issuing one write per line crossed.
            std::uint64_t src_cursor = key_b;
            std::uint64_t src_pending = 0;
            bool any = true;
            while (any) {
                any = false;
                for (int d = 0; d < radix; ++d) {
                    if (remaining[d] == 0)
                        continue;
                    any = true;
                    const std::uint32_t take =
                        std::min<std::uint32_t>(remaining[d],
                                                kKeysPerLine);
                    cpu.busy(take * cfg.cyclesPerKey);
                    cpu.write(dst + cursor[d] * 4);
                    // Source keys stream in sequentially.
                    src_pending += take;
                    while (src_pending >= kKeysPerLine &&
                           src_cursor < key_e) {
                        cpu.read(src + src_cursor * 4);
                        src_cursor += kKeysPerLine;
                        src_pending -= kKeysPerLine;
                    }
                    cursor[d] += take;
                    remaining[d] -= take;
                }
                co_await cpu.checkpoint();
            }
            co_await cpu.barrier(bar);
            std::swap(src, dst);
        }
        co_return;
    };
}

} // namespace ccnuma::apps
