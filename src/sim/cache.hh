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
 * works internally on line numbers (addr >> lineShift).
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

    /// Look up a line; allocates (Shared on read, Dirty on write) on
    /// miss. Defined inline below: the lookup and victim scan are fused
    /// into one pass over the set, and the whole path inlines into
    /// MemSys::access — together the hottest loop of the simulator.
    CacheResult access(Addr addr, bool is_write);

    /// Probe without side effects.
    LineState probe(Addr addr) const;

    /// Invalidate a line if present (due to a remote write).
    /// @return state the line was in.
    LineState invalidate(Addr addr);

    /// Downgrade Dirty->Shared (remote read of a line we own).
    void downgrade(Addr addr);

    /// Force a resident line into `st` (protocol-engine resolution of
    /// context-dependent next states, e.g. Dirty->Owned on an
    /// owner-forwarded read or Dragon's Sm/Sc transitions). The line
    /// must be resident; no LRU update.
    void setState(Addr addr, LineState st);

    /// Install a line in the given state, e.g. by a prefetch.
    /// Returns eviction info like access().
    CacheResult install(Addr addr, LineState st);

    std::uint64_t lineOf(Addr addr) const { return addr >> lineShift_; }
    std::uint32_t lineBytes() const { return 1u << lineShift_; }
    std::uint64_t numSets() const { return sets_; }
    int assoc() const { return assoc_; }

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
                const Way* set =
                    &ways_[(i * 64 + std::countr_zero(bits)) * assoc_];
                for (int w = 0; w < assoc_; ++w)
                    if (set[w].state != LineState::Invalid)
                        fn(set[w].line << lineShift_, set[w].state);
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
    /// Trivial, so the backing array is allocated uninitialised: a set
    /// holds garbage until its bit in setInit_ is set, and is written
    /// only when a fill first reaches it. Building a cache thus costs
    /// O(sets / 64), not O(capacity) — a 4 MB L2 is 512 KB of Way state,
    /// 128 MB per p256 machine, of which small runs reach a sliver.
    /// (Zeroed memory is no substitute: once glibc's dynamic mmap
    /// threshold rises past the array size, calloc memsets recycled
    /// heap in full.)
    struct Way {
        std::uint64_t line;
        LineState state;
        std::uint32_t lastUse;
    };

    std::uint64_t setIndex(std::uint64_t line) const
    {
        return line & (sets_ - 1);
    }

    bool
    setInitialised(std::uint64_t set) const
    {
        return (setInit_[set >> 6] >> (set & 63)) & 1;
    }

    /// A set whose bit is clear holds no line.
    Way*
    find(std::uint64_t line)
    {
        const std::uint64_t set = setIndex(line);
        if (!setInitialised(set))
            return nullptr;
        Way* base = &ways_[set * assoc_];
        for (int w = 0; w < assoc_; ++w)
            if (base[w].state != LineState::Invalid &&
                base[w].line == line)
                return &base[w];
        return nullptr;
    }
    const Way*
    find(std::uint64_t line) const
    {
        return const_cast<Cache*>(this)->find(line);
    }

    int lineShift_;
    std::uint64_t sets_;
    int assoc_;
    std::uint32_t useClock_ = 0;
    std::unique_ptr<Way[]> ways_; ///< sets_*assoc_, set-major.
    std::vector<std::uint64_t> setInit_; ///< one bit per set

    /// Resolved req[write][state].next per current state, applied
    /// inline on a write hit; LineState::Invalid means "leave
    /// unchanged, the engine resolves it" (Dragon's OwnedIfSharers).
    /// Keeps the historical Shared->Dirty hot-path store for MESI.
    LineState writeHitNext_[4] = {LineState::Invalid, LineState::Dirty,
                                  LineState::Invalid, LineState::Invalid};

    /// Mark `set` initialised with every way Invalid. Out of line so
    /// that access() stays small enough to inline.
    void initSet(std::uint64_t set);

    /// One pass over a set: returns the matching way via `hit`, or
    /// leaves `hit` null and returns the fill victim (first invalid
    /// way if any, else least-recently-used — identical choice to a
    /// separate find-then-scan). A set reached for the first time is
    /// initialised first, all ways Invalid.
    Way*
    scanSet(std::uint64_t line, Way*& hit)
    {
        const std::uint64_t set = setIndex(line);
        if (!setInitialised(set))
            initSet(set);
        Way* base = &ways_[set * assoc_];
        Way* victim = base;
        for (int w = 0; w < assoc_; ++w) {
            Way& cand = base[w];
            if (cand.state == LineState::Invalid) {
                if (victim->state != LineState::Invalid)
                    victim = &cand;
                continue;
            }
            if (cand.line == line) {
                hit = &cand;
                return victim;
            }
            if (victim->state != LineState::Invalid &&
                cand.lastUse < victim->lastUse)
                victim = &cand;
        }
        hit = nullptr;
        return victim;
    }
};

inline CacheResult
Cache::access(Addr addr, bool is_write)
{
    const std::uint64_t line = lineOf(addr);
    ++useClock_;
    Way* hit = nullptr;
    Way* victim = scanSet(line, hit);
    if (hit) {
        hit->lastUse = useClock_;
        CacheResult r;
        r.hit = true;
        if (is_write && hit->state != LineState::Dirty) {
            r.upgrade = true;
            const LineState nx =
                writeHitNext_[static_cast<int>(hit->state)];
            if (nx != LineState::Invalid)
                hit->state = nx;
        }
        return r;
    }
    // Miss: fill into the victim. The second tick keeps lastUse values
    // identical to the historical access()->install() pair, so LRU
    // decisions (and thus every simulated metric) are unchanged.
    ++useClock_;
    CacheResult r;
    if (victim->state != LineState::Invalid) {
        r.victim = victim->line << lineShift_;
        r.victimState = victim->state;
    }
    victim->line = line;
    victim->state = is_write ? LineState::Dirty : LineState::Shared;
    victim->lastUse = useClock_;
    return r;
}

inline CacheResult
Cache::install(Addr addr, LineState st)
{
    assert(st != LineState::Invalid);
    const std::uint64_t line = lineOf(addr);
    ++useClock_;
    Way* hit = nullptr;
    Way* victim = scanSet(line, hit);
    if (hit) {
        // Prefetch raced with demand fetch or repeated install.
        hit->lastUse = useClock_;
        if (st == LineState::Dirty)
            hit->state = LineState::Dirty;
        CacheResult r;
        r.hit = true;
        return r;
    }
    CacheResult r;
    if (victim->state != LineState::Invalid) {
        r.victim = victim->line << lineShift_;
        r.victimState = victim->state;
    }
    victim->line = line;
    victim->state = st;
    victim->lastUse = useClock_;
    return r;
}

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_CACHE_HH
