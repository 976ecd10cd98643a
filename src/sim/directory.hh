/**
 * @file
 * Full-bit-vector coherence directory (one logical entry per cache line,
 * materialized on demand), as kept at each Origin2000 home Hub.
 *
 * Storage is indexed by address, not searched: one block of entries
 * per simulated page, found through a vector indexed by page number.
 * A block is allocated when its page's first line is looked up and
 * freed when its last held line is dropped, so host memory follows
 * the pages that hold a cached line, not the footprint.
 *
 * Reference stability: lookup() returns a reference into a block,
 * which stays valid until a drop() frees that block. Callers must not
 * hold an entry reference across a drop() of another line in the same
 * page.
 */

#ifndef CCNUMA_SIM_DIRECTORY_HH
#define CCNUMA_SIM_DIRECTORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <new>
#include <vector>

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
 * The machine-wide directory, indexed by address like the Origin's
 * per-line entries at each home: a vector with one slot per simulated
 * page points to a block of pageBytes / lineBytes entries, allocated on
 * the first lookup() in the page and freed when drop() returns the
 * block's last held entry. A line's entry is *held* from its lookup()
 * until its drop(); a line that is not held has no entry (implicitly
 * Uncached), exactly the set a map keyed by line address would hold.
 */
class Directory
{
  public:
    /// @param pageBytes machine page size (a power of two): one block
    ///        per page
    /// @param lineBytes line size (a power of two dividing pageBytes)
    Directory(std::uint32_t pageBytes, std::uint32_t lineBytes);
    ~Directory();
    Directory(const Directory&) = delete;
    Directory& operator=(const Directory&) = delete;

    /// Entry for a line, holding it (Uncached if it was not held). The
    /// reference is invalidated by a drop() that frees its block.
    DirEntry&
    lookup(LineAddr line)
    {
        DirEntry* b = blockOf(line);
        if (!b) [[unlikely]]
            b = newBlock(line >> pageShift_);
        const std::uint32_t i = indexOf(line);
        DirEntry& e = b[i];
        // A held entry that is not Uncached already has its bit.
        if (e.state == DirState::Uncached)
            heldOf(b)[i >> 6] |= std::uint64_t{1} << (i & 63);
        return e;
    }

    /// Entry if held, else nullptr (no allocation).
    const DirEntry*
    probe(LineAddr line) const
    {
        const DirEntry* b = blockOf(line);
        const std::uint32_t i = indexOf(line);
        return b && isHeld(b, i) ? &b[i] : nullptr;
    }

    /// Release a line once it returns to Uncached: its entry resets to
    /// a fresh one, and a block left with no held entry is freed.
    void
    drop(LineAddr line)
    {
        DirEntry* b = blockOf(line);
        if (!b)
            return;
        const std::uint32_t i = indexOf(line);
        b[i] = DirEntry{};
        std::uint64_t& word = heldOf(b)[i >> 6];
        word &= ~(std::uint64_t{1} << (i & 63));
        if (word == 0)
            freeIfEmpty(line >> pageShift_);
    }

    /// Number of held entries (validation/tests).
    std::size_t size() const;

    /// Number of blocks allocated: the pages with a held entry. Exact
    /// and host-independent, like Cache::touchedSets().
    std::uint64_t blocks() const { return blocks_; }

    /// Call fn(lineAddr, entry) for every held entry, in address order
    /// (validation/tests).
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t pn = 0; pn < pages_.size(); ++pn) {
            const DirEntry* b = pages_[pn];
            if (!b)
                continue;
            const std::uint64_t* held = heldOf(b);
            for (std::uint32_t w = 0; w < heldWords_; ++w)
                for (std::uint64_t bits = held[w]; bits; bits &= bits - 1) {
                    const std::uint32_t i =
                        w * 64 + std::countr_zero(bits);
                    fn((LineAddr{pn} << pageShift_) +
                           (LineAddr{i} << lineShift_),
                       b[i]);
                }
        }
    }

  private:
    std::uint32_t
    indexOf(LineAddr line) const
    {
        return static_cast<std::uint32_t>(line >> lineShift_) & lineMask_;
    }

    /// The block of `line`'s page, or nullptr.
    DirEntry*
    blockOf(LineAddr line) const
    {
        const std::uint64_t pn = line >> pageShift_;
        return pn < pages_.size() ? pages_[pn] : nullptr;
    }

    /// A block's held bitmap, stored behind its entries (newBlock
    /// creates the words there).
    std::uint64_t*
    heldOf(DirEntry* b) const
    {
        return std::launder(
            reinterpret_cast<std::uint64_t*>(b + linesPerPage_));
    }
    const std::uint64_t*
    heldOf(const DirEntry* b) const
    {
        return heldOf(const_cast<DirEntry*>(b));
    }
    bool
    isHeld(const DirEntry* b, std::uint32_t i) const
    {
        return (heldOf(b)[i >> 6] >> (i & 63)) & 1;
    }

    /// Allocate page `pn`'s block, every entry fresh and unheld. Out
    /// of line: a block lives for many lookups.
    DirEntry* newBlock(std::uint64_t pn);
    /// Free page `pn`'s block if none of its entries is held.
    void freeIfEmpty(std::uint64_t pn);

    /// Page number -> block of linesPerPage_ entries followed by
    /// heldWords_ bitmap words, or nullptr.
    std::vector<DirEntry*> pages_;
    std::uint64_t blocks_ = 0;
    std::uint32_t pageShift_;
    std::uint32_t lineShift_;
    std::uint32_t linesPerPage_;
    std::uint32_t lineMask_;
    std::uint32_t heldWords_;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_DIRECTORY_HH
