/**
 * @file
 * Full-bit-vector coherence directory (one logical entry per cache line,
 * materialized on demand), as kept at each Origin2000 home Hub.
 *
 * Storage is sharded per home node, one open-addressing flat hash per
 * shard (see flat_hash.hh). A line's shard is its *static* page-
 * interleaved home — a pure function of the address — so the mapping
 * stays stable even when dynamic page migration moves a page's actual
 * home node mid-run. Sharding keeps each table small and its probe
 * windows dense, which is where the flat layout's cache behaviour wins
 * over one big node-based map.
 *
 * Reference stability: lookup() returns a reference into a flat table,
 * which is invalidated by any later insert (rehash) or drop (backward
 * shift). Callers must not hold an entry reference across other
 * Directory calls that may mutate the same shard.
 */

#ifndef CCNUMA_SIM_DIRECTORY_HH
#define CCNUMA_SIM_DIRECTORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/flat_hash.hh"
#include "sim/protocol.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

/** Compact set of sharer processors (up to kMaxProcs). */
class SharerSet
{
  public:
    void add(ProcId p) { bits_[p >> 6] |= 1ull << (p & 63); }
    void remove(ProcId p) { bits_[p >> 6] &= ~(1ull << (p & 63)); }
    bool contains(ProcId p) const
    {
        return bits_[p >> 6] & (1ull << (p & 63));
    }
    void clear() { bits_ = {}; }
    int count() const;
    bool empty() const
    {
        for (auto b : bits_)
            if (b)
                return false;
        return true;
    }
    /// Call fn(ProcId) for each member.
    template <typename Fn>
    void forEach(Fn&& fn) const
    {
        for (std::size_t w = 0; w < bits_.size(); ++w) {
            std::uint64_t b = bits_[w];
            while (b) {
                const int bit = __builtin_ctzll(b);
                fn(static_cast<ProcId>(w * 64 + bit));
                b &= b - 1;
            }
        }
    }

    bool operator==(const SharerSet&) const = default;

  private:
    std::array<std::uint64_t, kMaxProcs / 64> bits_{};
};

/** Directory state for one line. */
enum class DirState : std::uint8_t {
    Uncached, ///< No cached copies.
    Shared,   ///< One or more clean copies.
    Dirty,    ///< Exactly one modified copy at `owner`.
    Owned,    ///< Modified copy at `owner` plus clean copies at the
              ///< other sharers; `owner` (a member of `sharers`)
              ///< supplies the data (MOESI/Dragon only).
};

/** One directory entry: 40 bytes, the sharer bitmap first so the
 *  narrow fields pack behind it. */
struct DirEntry {
    SharerSet sharers;
    ProcId owner = kNoProc;
    DirState state = DirState::Uncached;
    /// Limited-pointer (Dir_iB) overflow: the sharer count exceeded
    /// the pointer budget, so invalidations broadcast to every
    /// processor. Reset when the entry is dropped or retaken
    /// exclusively. Always false under other directory formats.
    bool overflow = false;

    bool operator==(const DirEntry&) const = default;
};

/**
 * Call fn(ProcId) for every processor the home signals on an
 * invalidation/update fan-out for entry `e` under directory format
 * `fmt`: exact sharers under fullbv, every processor of every marked
 * region under coarse:K, and everybody once a ptr:N entry has
 * overflowed. Ascending processor order in every format.
 *
 * Pure query over a (possibly hypothetical) entry — it never touches
 * a live Directory — so it is shared by the MemSys fan-out paths and
 * by ccnuma::model's fan-out-consistency invariant, which asks what
 * the format *would* signal for each reachable entry.
 */
template <typename Fn>
void
forEachFanoutTarget(const DirectoryConfig& fmt, const DirEntry& e,
                    int numProcs, Fn&& fn)
{
    switch (fmt.format) {
      case DirFormat::FullBitVector:
        e.sharers.forEach(fn);
        return;
      case DirFormat::CoarseVector: {
        const int k = fmt.param;
        std::uint64_t regions[kMaxProcs / 64] = {};
        e.sharers.forEach([&](ProcId s) {
            const int r = s / k;
            regions[r >> 6] |= 1ull << (r & 63);
        });
        for (int t = 0; t < numProcs; ++t) {
            const int r = t / k;
            if (regions[r >> 6] & (1ull << (r & 63)))
                fn(static_cast<ProcId>(t));
        }
        return;
      }
      case DirFormat::LimitedPtr:
        if (!e.overflow) {
            e.sharers.forEach(fn);
            return;
        }
        for (int t = 0; t < numProcs; ++t)
            fn(static_cast<ProcId>(t));
        return;
    }
}

/**
 * The machine-wide directory. Entries live in per-home-shard flat hash
 * tables keyed by line address; lines never cached have no entry
 * (implicitly Uncached).
 *
 * Test seam: enableShadow(true) mirrors every operation into a
 * reference std::unordered_map (the pre-optimization representation);
 * shadowDiff() reports the first divergence. Because callers mutate
 * the reference lookup() hands out, the mirror copy is deferred to the
 * next Directory call (at which point the caller-side mutations are
 * complete and the slot has not yet moved).
 */
class Directory
{
  public:
    /// @param numNodes home nodes to shard across (rounded up to a
    ///        power of two internally)
    /// @param pageBytes machine page size (shard key granularity — one
    ///        page's lines share a shard, mirroring page homing)
    explicit Directory(int numNodes = 1,
                       std::uint32_t pageBytes = 16u << 10);

    /// Entry for a line, creating it Uncached if absent. The reference
    /// is invalidated by any later lookup() of an absent line or
    /// drop() in the same shard.
    DirEntry&
    lookup(LineAddr line)
    {
        if (!shadowOn_) [[likely]]
            return shards_[shardOf(line)][line];
        return shadowLookup(line);
    }

    /// Entry if present, else nullptr (no allocation).
    const DirEntry*
    probe(LineAddr line) const
    {
        if (shadowOn_)
            flushShadow();
        return shards_[shardOf(line)].find(line);
    }

    /// Drop an entry once a line returns to Uncached, bounding growth.
    void
    drop(LineAddr line)
    {
        if (shadowOn_) {
            flushShadow();
            shadow_.erase(line);
        }
        shards_[shardOf(line)].erase(line);
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto& s : shards_)
            n += s.size();
        return n;
    }

    /// Presize every shard for ~`totalLines` live entries spread
    /// across them (ROADMAP: ~6% of directory time was FlatHashMap
    /// rehash churn). Growth-only and allocation-only: reservation
    /// never changes entry contents, so simulated metrics are
    /// untouched. Safe to call repeatedly as the footprint grows.
    void
    reserveLines(std::uint64_t totalLines)
    {
        if (shards_.empty())
            return;
        const std::uint64_t per =
            totalLines / shards_.size() + 1;
        for (auto& s : shards_)
            s.reserve(static_cast<std::size_t>(per));
    }

    /// Call fn(lineAddr, entry) for every entry (validation/tests).
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        if (shadowOn_)
            flushShadow();
        for (const auto& s : shards_)
            s.forEach(fn);
    }

    // ---- Differential-test seam ----

    /// Mirror every operation into a reference std::unordered_map.
    /// Enable before first use (entries already present are not
    /// back-filled).
    void enableShadow(bool on) { shadowOn_ = on; }
    bool shadowEnabled() const { return shadowOn_; }

    /// Compare the flat storage against the reference map; empty string
    /// when identical, else a description of the first divergence.
    std::string shadowDiff() const;

  private:
    std::uint32_t
    shardOf(LineAddr line) const
    {
        return static_cast<std::uint32_t>(line >> pageShift_) &
               shardMask_;
    }

    DirEntry& shadowLookup(LineAddr line);
    void flushShadow() const;

    std::vector<FlatHashMap<DirEntry>> shards_;
    std::uint32_t shardMask_ = 0;
    std::uint32_t pageShift_ = 14;

    // Shadow state is logically part of validation, not simulation;
    // mutable so const readers (probe/forEach/shadowDiff) can flush
    // the one deferred mirror write first.
    bool shadowOn_ = false;
    mutable std::unordered_map<LineAddr, DirEntry> shadow_;
    mutable LineAddr pendingLine_ = 0;
    mutable const DirEntry* pendingEntry_ = nullptr;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_DIRECTORY_HH
