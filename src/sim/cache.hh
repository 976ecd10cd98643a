/**
 * @file
 * Set-associative L2 cache model with LRU replacement.
 *
 * The simulator models only the unified L2 (4 MB, 2-way, 128 B lines on
 * the Origin2000): the paper's entire analysis is at the level of L2
 * misses and coherence traffic, and the R10000's 32 KB L1s are strictly
 * inclusive filters that do not change miss classification.
 */

#ifndef CCNUMA_SIM_CACHE_HH
#define CCNUMA_SIM_CACHE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/protocol.hh"
#include "sim/types.hh"

namespace ccnuma::sim {

/** Coherence state of a cached line. */
enum class LineState : std::uint8_t {
    Invalid = 0,
    Shared = 1,
    Dirty = 2, ///< Exclusive-modified (owner).
    Owned = 3, ///< Modified but shared; this cache supplies the data
               ///< (MOESI Owned / Dragon Sm). Never occurs under MESI.
};

/** Result of a cache lookup-and-allocate. */
struct CacheResult {
    bool hit = false;
    bool upgrade = false;       ///< Hit without write permission: the
                                ///< store needs a coherence
                                ///< transaction (invalidate or update).
    LineAddr victim = 0;        ///< Valid line evicted to make room.
    LineState victimState = LineState::Invalid;
};

/**
 * One processor's L2 cache. Addresses are full byte addresses; the cache
 * works internally on line numbers (addr >> lineShift), each split into
 * a set index and a tag. A tag has kTagBits bits, so the cache holds
 * addresses up to maxAddr() (2^35 - 1, 32 GiB, for the Origin L2); an
 * access or install beyond it throws std::out_of_range.
 */
class Cache
{
  public:
    /**
     * @param bytes total capacity
     * @param assoc associativity
     * @param line_bytes line size (power of two)
     * @param proto coherence protocol whose requester table decides
     *        what a write hit does to the line state inline (nullptr
     *        means MESI, preserving the historical constructor).
     */
    Cache(std::uint64_t bytes, int assoc, std::uint32_t line_bytes,
          const Protocol* proto = nullptr);

    /// One way: `(tag << 2) | state`, where the tag is the line number
    /// without its set-index bits (`line >> log2 sets`); the way's set
    /// gives those back. An invalid way is all zero bits. A set is kept
    /// in recency order, most recent first, invalid ways last: a hit
    /// moves its way to the front, a fill replaces the last way (an
    /// invalid one if any, else the LRU line) and moves it to the
    /// front, and invalidate() moves a way to the back. The array is
    /// allocated uninitialised: a set holds garbage until its bit in
    /// setInit_ is set, so building a cache costs O(sets / 64), not
    /// O(capacity) — a 4 MB L2 is 64 KB of ways, 16 MB per p256
    /// machine, of which small runs reach a sliver. (Zeroed memory is
    /// no substitute: once glibc's dynamic mmap threshold rises past
    /// the array size, calloc memsets recycled heap in full.)
    using Way = std::uint16_t;

    /// Bits of a way's tag: every bit of a Way but the two of the state.
    static constexpr int kTagBits = 8 * sizeof(Way) - 2;

    /// Look up a line; allocates (Shared on read, Dirty on write) on
    /// miss. Inlined into MemSys::access, the simulator's hottest loop;
    /// GCC's -O2 size estimate sits at its implicit-inlining limit.
    /// @throws std::out_of_range if `addr` > maxAddr(); the cache is
    ///         left unchanged.
    [[gnu::always_inline]] CacheResult access(Addr addr, bool is_write);

    /// Probe without side effects. An address beyond maxAddr() is
    /// never resident, so the probe, invalidate(), downgrade() and
    /// setState() never find it.
    LineState probe(Addr addr) const;

    /// Invalidate a line if present (due to a remote write). The way
    /// becomes the set's last, so the next fill takes it.
    /// @return state the line was in.
    LineState invalidate(Addr addr);

    /// Downgrade Dirty->Shared (remote read of a line we own).
    void downgrade(Addr addr);

    /// Force a resident line into `st` (protocol-engine resolution of
    /// context-dependent next states, e.g. Dirty->Owned on an
    /// owner-forwarded read or Dragon's Sm/Sc transitions). The line
    /// must be resident; no LRU update. Throws std::invalid_argument
    /// for LineState::Invalid: use invalidate(), which keeps the set's
    /// recency order.
    void setState(Addr addr, LineState st);

    /// Install a line in the given state, e.g. by a prefetch.
    /// Returns eviction info like access(), and throws like it.
    CacheResult install(Addr addr, LineState st);

    std::uint64_t lineOf(Addr addr) const { return addr >> lineShift_; }
    std::uint32_t lineBytes() const { return 1u << lineShift_; }
    std::uint64_t numSets() const { return sets_; }
    int assoc() const { return assoc_; }

    /// The highest byte address whose tag fits in kTagBits:
    /// 2^(kTagBits + log2 sets + log2 line bytes) - 1, or the top of
    /// the address space when that reaches 2^64.
    Addr maxAddr() const;

    /// Number of valid lines currently resident (for tests).
    std::uint64_t residentLines() const;

    /// Call fn(lineBaseAddr, state) for every valid line (validation).
    template <typename Fn>
    void
    forEachLine(Fn&& fn) const
    {
        // Only initialised sets hold lines; visit them in set order.
        for (std::size_t i = 0; i < setInit_.size(); ++i) {
            for (std::uint64_t bits = setInit_[i]; bits; bits &= bits - 1) {
                const std::uint64_t s = i * 64 + std::countr_zero(bits);
                const Way* set = &ways_[s * assoc_];
                for (int w = 0; w < assoc_; ++w)
                    if (stateOf(set[w]) != LineState::Invalid)
                        fn(addrOf(set[w], s), stateOf(set[w]));
            }
        }
    }

    /// Drop every line, as if by a full flush; no writebacks are modelled
    /// (used when resetting between phases in tests).
    void reset();

    /// Number of sets initialised since construction or the last
    /// reset(): the sets some access() or install() has reached. Exact
    /// and host-independent, unlike the pages the array occupies.
    std::uint64_t touchedSets() const;

  private:
    static LineState
    stateOf(Way w)
    {
        return static_cast<LineState>(w & 3);
    }
    static Way
    withState(Way w, LineState st)
    {
        return static_cast<Way>((w & ~3) | static_cast<int>(st));
    }

    std::uint64_t setIndex(std::uint64_t line) const
    {
        return line & (sets_ - 1);
    }

    /// `line` without its set-index bits; it fits a Way when
    /// `tagOf(line) >> kTagBits` is zero.
    std::uint64_t tagOf(std::uint64_t line) const
    {
        return line >> setShift_;
    }

    /// Base address of the line a valid way `w` of set `set` holds.
    Addr addrOf(Way w, std::uint64_t set) const
    {
        return ((std::uint64_t{w} >> 2 << setShift_) | set) << lineShift_;
    }

    bool
    setInitialised(std::uint64_t set) const
    {
        return (setInit_[set >> 6] >> (set & 63)) & 1;
    }

    /// Index of the valid way in `base` holding `key` = `tag << 2`,
    /// or -1. A way matches when it XORs with `key` to a nonzero state
    /// alone. The subtraction must wrap in Way arithmetic: promoted to
    /// int, an invalid way's 0 - 1 is -1 < 3 and matches tag 0.
    int
    wayOf(const Way* base, Way key) const
    {
        for (int w = 0; w < assoc_; ++w)
            if (static_cast<Way>((base[w] ^ key) - 1) < 3)
                return w;
        return -1;
    }

    /// The valid way holding `line`, or nullptr. A set whose bit is
    /// clear holds no line, nor can any set hold a tag that does not
    /// fit.
    Way*
    find(std::uint64_t line) const
    {
        const std::uint64_t set = setIndex(line);
        const std::uint64_t tag = tagOf(line);
        if (!setInitialised(set) || tag >> kTagBits)
            return nullptr;
        Way* base = &ways_[set * assoc_];
        const int w = wayOf(base, static_cast<Way>(tag << 2));
        return w < 0 ? nullptr : base + w;
    }

    /// Store `v` at the front of the set, shifting ways [0, w) back by
    /// one; the old way `w` is overwritten. Carrying one way forward,
    /// rather than copying backwards, keeps GCC from turning the
    /// one- or two-way shift into a memmove call.
    static void
    toFront(Way* base, int w, Way v)
    {
        for (int i = 0; i <= w; ++i)
            std::swap(v, base[i]);
    }

    /// Shared body of access() and install(). A hit passes its way to
    /// `on_hit`, which may set r.upgrade and returns the way's new
    /// value; a miss evicts the last way (an invalid way reports victim
    /// 0 in state Invalid, not the address its zero tag would give) for
    /// `line` in state `fill`. A hit on the front way that changes
    /// nothing writes nothing. A set not yet initialised holds nothing:
    /// the access is a miss with no victim, filled without reading the
    /// set. A tag that does not fit throws before anything changes.
    template <typename OnHit>
    [[gnu::always_inline]] CacheResult
    use(Addr addr, LineState fill, OnHit on_hit)
    {
        const std::uint64_t line = lineOf(addr);
        const std::uint64_t set = setIndex(line);
        const std::uint64_t tag = tagOf(line);
        if (tag >> kTagBits) [[unlikely]]
            throwOutOfRange(addr);
        const Way key = static_cast<Way>(tag << 2);
        if (!setInitialised(set)) [[unlikely]] {
            fillFresh(set, withState(key, fill));
            return {};
        }
        Way* base = &ways_[set * assoc_];
        int w = wayOf(base, key);
        CacheResult r;
        Way v = 0;
        if (w >= 0) {
            r.hit = true;
            v = on_hit(base[w], r);
            if (w == 0 && v == base[0])
                return r;
        } else {
            w = assoc_ - 1;
            const Way old = base[w];
            r.victim = old ? addrOf(old, set) : 0;
            r.victimState = stateOf(old);
            v = withState(key, fill);
        }
        toFront(base, w, v);
        return r;
    }

    int lineShift_;
    int setShift_ = 0; ///< log2(sets_)
    std::uint64_t sets_ = 0;
    int assoc_;
    std::unique_ptr<Way[]> ways_; ///< sets_*assoc_, set-major.
    std::vector<std::uint64_t> setInit_; ///< one bit per set

    /// Resolved req[write][state].next per current state, applied
    /// inline on a write hit; LineState::Invalid means "leave
    /// unchanged, the engine resolves it" (Dragon's OwnedIfSharers).
    /// Keeps the historical Shared->Dirty hot-path store for MESI.
    LineState writeHitNext_[4] = {LineState::Invalid, LineState::Dirty,
                                  LineState::Invalid, LineState::Invalid};

    /// Mark `set` initialised holding `way` in front and every other
    /// way Invalid, without loading the set's garbage. Out of line: a
    /// first touch is rare, and inlined set initialisation slowed
    /// sim-hot by ≈7%.
    void fillFresh(std::uint64_t set, Way way);

    /// Throw std::out_of_range for `addr`, whose tag does not fit. Out
    /// of line, so the throw adds one branch to access(), not its body.
    [[noreturn]] void throwOutOfRange(Addr addr) const;
};

inline CacheResult
Cache::access(Addr addr, bool is_write)
{
    const LineState fill = is_write ? LineState::Dirty : LineState::Shared;
    return use(addr, fill, [this, is_write](Way v, CacheResult& r) {
        if (is_write && stateOf(v) != LineState::Dirty) {
            r.upgrade = true;
            const LineState nx = writeHitNext_[v & 3];
            if (nx != LineState::Invalid)
                v = withState(v, nx);
        }
        return v;
    });
}

inline CacheResult
Cache::install(Addr addr, LineState st)
{
    assert(st != LineState::Invalid);
    // A hit is a prefetch racing a demand fetch, or a repeated install.
    return use(addr, st, [st](Way v, CacheResult&) {
        return st == LineState::Dirty ? withState(v, st) : v;
    });
}

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_CACHE_HH
