/**
 * @file
 * Unit tests for the set-associative L2 cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <new>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/trace.hh"
#include "check/stress.hh"
#include "model/world.hh"
#include "sim/cache.hh"
#include "sim/machine.hh"

using namespace ccnuma::sim;

// One 2-byte word per way, (tag << 2) | state: a 4 MB, 2-way L2 is
// 64 KB of way state.
static_assert(sizeof(Cache::Way) == 2);

namespace {
constexpr std::uint32_t kLine = 128;
/// The largest tag a way holds.
constexpr std::uint64_t kTopTag = (std::uint64_t{1} << Cache::kTagBits) - 1;
} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(8 << 10, 2, kLine);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000 + kLine - 1, false).hit) <<
        "same line, different offset";
    EXPECT_FALSE(c.access(0x1000 + kLine, false).hit) << "next line";
}

TEST(Cache, WriteAllocatesDirty)
{
    Cache c(8 << 10, 2, kLine);
    EXPECT_FALSE(c.access(0x2000, true).hit);
    EXPECT_EQ(c.probe(0x2000), LineState::Dirty);
}

TEST(Cache, ReadAllocatesShared)
{
    Cache c(8 << 10, 2, kLine);
    c.access(0x2000, false);
    EXPECT_EQ(c.probe(0x2000), LineState::Shared);
}

TEST(Cache, WriteHitOnSharedUpgrades)
{
    Cache c(8 << 10, 2, kLine);
    c.access(0x2000, false);
    const CacheResult r = c.access(0x2000, true);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.upgrade);
    EXPECT_EQ(c.probe(0x2000), LineState::Dirty);
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way: lines mapping to the same set evict the least recently used.
    Cache c(8 << 10, 2, kLine);
    const std::uint64_t set_stride = c.numSets() * kLine;
    const Addr a = 0x0, b = a + set_stride, d = a + 2 * set_stride;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // refresh a; b is now LRU
    const CacheResult r = c.access(d, false);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.victim, b);
    EXPECT_EQ(r.victimState, LineState::Shared);
    EXPECT_EQ(c.probe(a), LineState::Shared);
    EXPECT_EQ(c.probe(b), LineState::Invalid);
}

TEST(Cache, DirtyVictimReported)
{
    Cache c(8 << 10, 2, kLine);
    const std::uint64_t set_stride = c.numSets() * kLine;
    c.access(0x0, true);
    c.access(set_stride, false);
    const CacheResult r = c.access(2 * set_stride, false);
    EXPECT_EQ(r.victim, 0u);
    EXPECT_EQ(r.victimState, LineState::Dirty);
}

TEST(Cache, InvalidateAndDowngrade)
{
    Cache c(8 << 10, 2, kLine);
    c.access(0x4000, true);
    c.downgrade(0x4000);
    EXPECT_EQ(c.probe(0x4000), LineState::Shared);
    EXPECT_EQ(c.invalidate(0x4000), LineState::Shared);
    EXPECT_EQ(c.probe(0x4000), LineState::Invalid);
    EXPECT_EQ(c.invalidate(0x4000), LineState::Invalid);
}

TEST(Cache, CapacityWorkingSetBehaviour)
{
    // A working set equal to capacity fits (fully-assoc would; 2-way LRU
    // with sequential fill also does since each set sees its own lines in
    // order); 2x capacity thrashes.
    const std::uint64_t cap = 64 << 10;
    Cache c(cap, 2, kLine);
    const int lines = static_cast<int>(cap / kLine);
    for (int i = 0; i < lines; ++i)
        c.access(static_cast<Addr>(i) * kLine, false);
    EXPECT_EQ(c.residentLines(), static_cast<std::uint64_t>(lines));
    int hits = 0;
    for (int i = 0; i < lines; ++i)
        hits += c.access(static_cast<Addr>(i) * kLine, false).hit;
    EXPECT_EQ(hits, lines) << "capacity-sized set should fully hit";

    c.reset();
    for (int rep = 0; rep < 2; ++rep)
        for (int i = 0; i < 2 * lines; ++i)
            c.access(static_cast<Addr>(i) * kLine, false);
    hits = 0;
    for (int i = 0; i < 2 * lines; ++i)
        hits += c.access(static_cast<Addr>(i) * kLine, false).hit;
    EXPECT_EQ(hits, 0) << "2x working set under LRU sequential scan "
                          "should thrash completely";
}

TEST(Cache, InstallIdempotentAndStateMerge)
{
    Cache c(8 << 10, 2, kLine);
    c.install(0x8000, LineState::Shared);
    EXPECT_EQ(c.probe(0x8000), LineState::Shared);
    const CacheResult r = c.install(0x8000, LineState::Dirty);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(c.probe(0x8000), LineState::Dirty);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(100, 2, 128), std::invalid_argument);
    EXPECT_THROW(Cache(8 << 10, 2, 100), std::invalid_argument);
    // Zero divisors are rejected before the set count is computed.
    EXPECT_THROW(Cache(8 << 10, 0, 128), std::invalid_argument);
    EXPECT_THROW(Cache(8 << 10, -1, 128), std::invalid_argument);
    EXPECT_THROW(Cache(8 << 10, 2, 0), std::invalid_argument);
}

TEST(Cache, InvalidatedMiddleWayIsTheNextFill)
{
    // One 4-way set. After a is touched again the recency order is
    // a d c b; invalidating c, in the middle, frees a way, so the next
    // fill evicts nothing and the one after evicts b, the true LRU.
    Cache cache(4 * kLine, 4, kLine);
    const Addr a = 0, b = kLine, c = 2 * kLine, d = 3 * kLine;
    const Addr e = 4 * kLine, f = 5 * kLine;
    for (const Addr x : {a, b, c, d})
        EXPECT_FALSE(cache.access(x, false).hit);
    EXPECT_TRUE(cache.access(a, false).hit);
    EXPECT_EQ(cache.invalidate(c), LineState::Shared);
    EXPECT_EQ(cache.residentLines(), 3u);

    const CacheResult fill_e = cache.access(e, true);
    EXPECT_FALSE(fill_e.hit);
    EXPECT_EQ(fill_e.victimState, LineState::Invalid)
        << "evicted a line although a way was free";
    const CacheResult fill_f = cache.access(f, false);
    EXPECT_EQ(fill_f.victim, b);
    EXPECT_EQ(fill_f.victimState, LineState::Shared);
    for (const Addr x : {a, d, e, f})
        EXPECT_NE(cache.probe(x), LineState::Invalid);
}

TEST(Cache, SetStateInvalidIsRejected)
{
    // Forcing a way Invalid in place would leave a hole in front of
    // valid ways, and the next fill would evict a line instead of
    // taking it; invalidate() is the only way to drop a line.
    Cache c(8 << 10, 2, kLine);
    c.access(0x2000, true);
    EXPECT_THROW(c.setState(0x2000, LineState::Invalid),
                 std::invalid_argument);
    EXPECT_EQ(c.probe(0x2000), LineState::Dirty);
    c.setState(0x2000, LineState::Owned);
    EXPECT_EQ(c.probe(0x2000), LineState::Owned);
}

TEST(Cache, FreshSetMissHasNoVictim)
{
    // After reset() every set still holds its old ways: a first access
    // must neither find nor evict them.
    for (const int assoc : {1, 2, 4, 16}) {
        SCOPED_TRACE(testing::Message() << assoc << "-way");
        Cache c(64 * kLine, assoc, kLine);
        const Addr stride = c.numSets() * kLine;
        for (int w = 0; w < assoc; ++w)
            c.access(0x4000 + w * stride, /*is_write=*/true);
        c.reset();
        for (const bool write : {false, true}) {
            const CacheResult r = c.access(0x4000, write);
            EXPECT_FALSE(r.hit);
            EXPECT_FALSE(r.upgrade);
            EXPECT_EQ(r.victim, 0u);
            EXPECT_EQ(r.victimState, LineState::Invalid);
            EXPECT_EQ(c.probe(0x4000),
                      write ? LineState::Dirty : LineState::Shared);
            EXPECT_EQ(c.residentLines(), 1u);
            c.reset();
        }
        const CacheResult r = c.install(0x4000 + stride, LineState::Owned);
        EXPECT_FALSE(r.hit);
        EXPECT_EQ(r.victimState, LineState::Invalid);
        EXPECT_EQ(c.probe(0x4000), LineState::Invalid);
        EXPECT_EQ(c.touchedSets(), 1u);
    }
}

TEST(Cache, InvalidVictimReportsAddressZero)
{
    // An invalid way rebuilt from its zero tag would name the first
    // line of its set; a miss that takes it reports no victim instead.
    Cache c(8 << 10, 2, kLine);
    const Addr stride = c.numSets() * kLine;
    const Addr a = 5 * kLine, b = a + stride, d = a + 2 * stride;
    c.access(a, false);
    const CacheResult fresh_way = c.access(b, false);
    EXPECT_EQ(fresh_way.victim, 0u);
    EXPECT_EQ(fresh_way.victimState, LineState::Invalid);
    EXPECT_EQ(c.invalidate(b), LineState::Shared);
    const CacheResult freed_way = c.access(d, true);
    EXPECT_EQ(freed_way.victim, 0u);
    EXPECT_EQ(freed_way.victimState, LineState::Invalid);
    const CacheResult lru = c.access(b, false);
    EXPECT_EQ(lru.victim, a);
    EXPECT_EQ(lru.victimState, LineState::Shared);
}

TEST(Cache, ResidentCountTracksEvictions)
{
    Cache c(2 * kLine, 2, kLine); // one set, two ways
    c.access(0, false);
    c.access(kLine, false);
    c.access(2 * kLine, false); // evicts
    EXPECT_EQ(c.residentLines(), 2u);
}

namespace {

/**
 * Reference model for the differential test: a plain per-set LRU list
 * (most recent first) holding at most `assoc` lines, with the MESI
 * write-hit rule the default Cache applies inline.
 */
class RefCache
{
  public:
    using Snapshot = std::vector<std::pair<Addr, LineState>>;

    RefCache(std::uint64_t sets, int assoc, std::uint32_t line_bytes)
        : sets_(sets), assoc_(assoc), lineBytes_(line_bytes)
    {
    }

    CacheResult
    access(Addr addr, bool is_write)
    {
        const LineState fill = is_write ? LineState::Dirty
                                        : LineState::Shared;
        return use(addr, fill, [is_write](LineState& st, CacheResult& r) {
            if (is_write && st != LineState::Dirty) {
                r.upgrade = true;
                if (st == LineState::Shared)
                    st = LineState::Dirty;
            }
        });
    }

    CacheResult
    install(Addr addr, LineState fill)
    {
        return use(addr, fill, [fill](LineState& st, CacheResult&) {
            if (fill == LineState::Dirty)
                st = LineState::Dirty;
        });
    }

    LineState
    probe(Addr addr)
    {
        auto [set, it] = locate(addr);
        return it == set->end() ? LineState::Invalid : it->second;
    }

    LineState
    invalidate(Addr addr)
    {
        auto [set, it] = locate(addr);
        if (it == set->end())
            return LineState::Invalid;
        const LineState st = it->second;
        set->erase(it);
        return st;
    }

    void
    downgrade(Addr addr)
    {
        auto [set, it] = locate(addr);
        if (it != set->end() && it->second == LineState::Dirty)
            it->second = LineState::Shared;
    }

    void
    setState(Addr addr, LineState st)
    {
        locate(addr).second->second = st;
    }

    void
    reset()
    {
        lines_.clear();
        touched_.clear();
    }

    Snapshot
    contents() const
    {
        Snapshot out;
        for (const auto& [idx, set] : lines_)
            for (const auto& [line, st] : set)
                out.emplace_back(line * lineBytes_, st);
        std::sort(out.begin(), out.end());
        return out;
    }

    std::uint64_t touchedSets() const { return touched_.size(); }

  private:
    /// (line, state), most recently used first.
    using Set = std::vector<std::pair<std::uint64_t, LineState>>;

    std::pair<Set*, Set::iterator>
    locate(Addr addr)
    {
        const std::uint64_t line = addr / lineBytes_;
        Set& set = lines_[line % sets_];
        return {&set, std::find_if(set.begin(), set.end(),
                                   [line](const auto& e) {
                                       return e.first == line;
                                   })};
    }

    /// Lookup-and-allocate: a hit applies `on_hit` and becomes most
    /// recent; a miss evicts the least recent line of a full set.
    template <typename OnHit>
    CacheResult
    use(Addr addr, LineState fill, OnHit on_hit)
    {
        CacheResult r;
        const std::uint64_t line = addr / lineBytes_;
        touched_.insert(line % sets_);
        auto [set, it] = locate(addr);
        if (it != set->end()) {
            r.hit = true;
            on_hit(it->second, r);
            std::rotate(set->begin(), it, it + 1);
            return r;
        }
        if (set->size() == static_cast<std::size_t>(assoc_)) {
            r.victim = set->back().first * lineBytes_;
            r.victimState = set->back().second;
            set->pop_back();
        }
        set->insert(set->begin(), {line, fill});
        return r;
    }

    std::uint64_t sets_;
    int assoc_;
    std::uint32_t lineBytes_;
    std::map<std::uint64_t, Set> lines_; ///< by set index
    std::set<std::uint64_t> touched_;
};

RefCache::Snapshot
snapshot(const Cache& c)
{
    RefCache::Snapshot out;
    c.forEachLine([&out](Addr a, LineState st) { out.emplace_back(a, st); });
    std::sort(out.begin(), out.end());
    return out;
}

void
expectSameResult(const CacheResult& got, const CacheResult& want)
{
    EXPECT_EQ(got.hit, want.hit);
    EXPECT_EQ(got.upgrade, want.upgrade);
    EXPECT_EQ(got.victim, want.victim);
    EXPECT_EQ(got.victimState, want.victimState);
}

/// Drive `c` and a RefCache of the same geometry through one seeded
/// random sequence, comparing every result and the full contents after
/// each op. Addresses come from a few sets with more tags than ways, so
/// sets fill, evict and get invalidated; half the tags are the lowest
/// and half the highest a way holds, so rebuilt victim and line
/// addresses reach the top of the tag range. Besides the random resets,
/// both caches are reset every `reset_every` ops (0: never), so sets
/// holding stale ways are filled fresh again.
void
runDifferential(Cache& c, std::uint64_t seed, int ops, int reset_every = 0)
{
    RefCache ref(c.numSets(), c.assoc(), c.lineBytes());
    std::mt19937_64 rng(seed);
    const std::uint64_t n_sets =
        std::min<std::uint64_t>(c.numSets(), 6);
    std::vector<std::uint64_t> hot_sets;
    for (std::uint64_t i = 0; i < n_sets; ++i)
        hot_sets.push_back(c.numSets() <= 6 ? i : rng() % c.numSets());
    const std::uint64_t n_tags = 3 * c.assoc() + 1;
    auto addr = [&] {
        const std::uint64_t set = hot_sets[rng() % hot_sets.size()];
        const std::uint64_t i = rng() % n_tags;
        const std::uint64_t tag = i % 2 ? kTopTag - i / 2 : i / 2;
        const std::uint64_t line = tag * c.numSets() + set;
        return line * c.lineBytes() + rng() % c.lineBytes();
    };
    constexpr LineState kFill[] = {LineState::Shared, LineState::Dirty,
                                   LineState::Owned};

    EXPECT_EQ(c.residentLines(), 0u);
    EXPECT_EQ(c.touchedSets(), 0u);
    for (int i = 0; i < ops; ++i) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << i);
        const Addr a = addr();
        const int pick = static_cast<int>(rng() % 100);
        if (pick < 30) {
            expectSameResult(c.access(a, false), ref.access(a, false));
        } else if (pick < 50) {
            expectSameResult(c.access(a, true), ref.access(a, true));
        } else if (pick < 60) {
            const LineState st = kFill[rng() % 3];
            expectSameResult(c.install(a, st), ref.install(a, st));
        } else if (pick < 72) {
            EXPECT_EQ(c.invalidate(a), ref.invalidate(a));
        } else if (pick < 82) {
            c.downgrade(a);
            ref.downgrade(a);
        } else if (pick < 90) {
            // setState needs a resident line.
            const RefCache::Snapshot lines = ref.contents();
            if (!lines.empty()) {
                const Addr r = lines[rng() % lines.size()].first;
                const LineState st = kFill[rng() % 3];
                c.setState(r, st);
                ref.setState(r, st);
            }
        } else if (pick < 99) {
            EXPECT_EQ(c.probe(a), ref.probe(a));
        } else {
            c.reset();
            ref.reset();
        }
        if (reset_every > 0 && i % reset_every == reset_every - 1) {
            c.reset();
            ref.reset();
        }
        EXPECT_EQ(c.probe(a), ref.probe(a));
        const RefCache::Snapshot want = ref.contents();
        EXPECT_EQ(c.residentLines(), want.size());
        EXPECT_EQ(snapshot(c), want);
        EXPECT_EQ(c.touchedSets(), ref.touchedSets());
        if (testing::Test::HasFailure())
            return;
    }
}

} // namespace

TEST(CacheDifferential, MatchesReferenceLruAcrossGeometries)
{
    struct Geometry {
        std::uint64_t bytes;
        int assoc;
    };
    const Geometry geometries[] = {
        {4 * kLine, 1},   // tiny, direct-mapped
        {8 * kLine, 2},   // tiny, 2-way
        {16 * kLine, 4},  // tiny, 4-way
        {2 * kLine, 2},   // a single set
        {4 << 20, 1},     // Origin L2 size, direct-mapped
        {4 << 20, 2},     // the Origin L2
        {4 << 20, 4},
        {32 * kLine, 8},  // tiny, 8-way: longer move-to-front shifts
        {64 * kLine, 16}, // tiny, 16-way
        {16 * kLine, 16}, // a single 16-way set
        {4 << 20, 8},
        {4 << 20, 16},
    };
    for (const Geometry& g : geometries) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(testing::Message() << g.bytes << " B, "
                                            << g.assoc << "-way");
            Cache c(g.bytes, g.assoc, kLine);
            runDifferential(c, seed, 2000, /*reset_every=*/250);
            if (HasFailure())
                return;
        }
    }
}

TEST(CacheDifferential, RecycledGarbageBacksAFreshCache)
{
    // The way array is left uninitialised, so a cache built on a heap
    // chunk some earlier owner filled must still start empty. Free a
    // block of the Origin L2's array size (one Way per line) filled
    // with 0xFF just before building the cache, so the allocator is
    // likely to hand the same chunk back. Freeing a first block of
    // that size makes the second come from the heap rather than mmap.
    const std::uint64_t bytes = 4 << 20;
    const std::size_t array_bytes = bytes / kLine * sizeof(Cache::Way);
    ::operator delete(::operator new(array_bytes));
    void* garbage = ::operator new(array_bytes);
    volatile unsigned char* p = static_cast<unsigned char*>(garbage);
    for (std::size_t i = 0; i < array_bytes; ++i)
        p[i] = 0xFF;
    ::operator delete(garbage);

    Cache c(bytes, 2, kLine);
    for (std::uint64_t set = 0; set < c.numSets(); set += 97)
        EXPECT_EQ(c.probe(set * kLine), LineState::Invalid);
    runDifferential(c, 7, 4000);
}

TEST(Cache, TagOutOfRangeThrowsAndChangesNothing)
{
    Cache c(4 << 20, 2, kLine); // the Origin L2: 2^14 sets
    const Addr top = c.maxAddr();
    ASSERT_EQ(top, (Addr{1} << 35) - 1);
    const Addr low = 3 * kLine;         // tag 0
    const Addr high = top - kLine + 1;  // tag 2^14 - 1, the last set
    EXPECT_FALSE(c.access(low, true).hit);
    EXPECT_FALSE(c.access(high, false).hit);
    EXPECT_TRUE(c.access(top, false).hit) << "same line as `high`";
    const RefCache::Snapshot before = snapshot(c);
    ASSERT_EQ(before.size(), 2u);

    // Each of these drops the tag's top bits to land on a resident
    // line: it must neither find that line nor fill over it.
    for (const Addr a : {top + 1, top + 1 + low, top + 1 + high,
                         ~Addr{0}}) {
        SCOPED_TRACE(testing::Message() << std::hex << a);
        EXPECT_THROW(c.access(a, false), std::out_of_range);
        EXPECT_THROW(c.access(a, true), std::out_of_range);
        EXPECT_THROW(c.install(a, LineState::Dirty), std::out_of_range);
        EXPECT_EQ(c.probe(a), LineState::Invalid);
        EXPECT_EQ(c.invalidate(a), LineState::Invalid);
        c.downgrade(a);
        EXPECT_EQ(snapshot(c), before);
        EXPECT_EQ(c.touchedSets(), 2u);
    }
    EXPECT_EQ(c.probe(low), LineState::Dirty);
    EXPECT_EQ(c.probe(high), LineState::Shared);
}

TEST(Cache, RunReadingBeyondTheTagRangeThrows)
{
    Machine m(MachineConfig::origin2000(2));
    const Addr beyond = m.mem().cache(0).maxAddr() + 1;
    bool read_returned = false;
    EXPECT_THROW(m.run([&](Cpu& cpu) -> Task {
        if (cpu.id() == 1) {
            cpu.read(beyond);
            read_returned = true;
        }
        co_await cpu.checkpoint();
        co_return;
    }),
                 std::out_of_range);
    EXPECT_FALSE(read_returned);
    EXPECT_EQ(m.mem().cache(1).residentLines(), 0u);
}

TEST(Cache, AllocPastTheTagRangeThrows)
{
    Machine m(MachineConfig::origin2000(1));
    const std::uint64_t page = m.config().pageBytes;
    const Addr end = m.mem().cache(0).maxAddr() + 1; // 2^35
    // The heap may fill the tag range exactly, and no more.
    EXPECT_THROW(m.alloc(end - m.heapEnd() + 1), std::overflow_error);
    EXPECT_EQ(m.heapEnd(), Machine::kHeapBase);
    EXPECT_EQ(m.alloc(end - page - m.heapEnd()), Machine::kHeapBase);
    EXPECT_EQ(m.alloc(page), end - page);
    EXPECT_EQ(m.heapEnd(), end);
    EXPECT_THROW(m.alloc(1), std::overflow_error);
    EXPECT_EQ(m.heapEnd(), end);
}

// The tag range of every cache geometry the project builds, pinned
// against what each one must hold, so a narrower Way fails here by
// name rather than as a golden diff.
TEST(Cache, TagRangeCoversEveryConsumer)
{
    const MachineConfig origin = MachineConfig::origin2000(1);
    const MachineConfig stress = ccnuma::check::StressOptions::defaultMachine();
    const MachineConfig model = ccnuma::model::World::makeConfig(
        ProtocolConfig{}, DirectoryConfig{}, 2, CheckMutation::None);
    struct Geometry {
        const char* what;
        std::uint64_t bytes;
        int assoc;
        std::uint32_t line;
        Addr max;
    };
    const Geometry table[] = {
        {"Origin L2", origin.cacheBytes, origin.cacheAssoc, origin.lineBytes,
         (Addr{1} << 35) - 1},
        {"scaled 512 KB cache", 512u << 10, 2, kLine, (Addr{1} << 32) - 1},
        {"oracle sweep", 256u << 10, 2, kLine, (Addr{1} << 31) - 1},
        {"stress", stress.cacheBytes, stress.cacheAssoc, stress.lineBytes,
         (Addr{1} << 25) - 1},
        {"model checker", model.cacheBytes, model.cacheAssoc,
         model.lineBytes, (Addr{1} << 21) - 1},
    };
    for (const Geometry& g : table)
        EXPECT_EQ(Cache(g.bytes, g.assoc, g.line).maxAddr(), g.max) << g.what;

    // The model checker's watched line pair sits in its one-line cache.
    const ccnuma::model::World w(model);
    EXPECT_LE(w.lineB() + model.lineBytes - 1, table[4].max);

    // The largest trace heap fits the default machine at every size.
    for (const int procs : {1, 256}) {
        Machine m(MachineConfig::origin2000(procs));
        EXPECT_EQ(m.alloc(ccnuma::apps::kMaxTraceHeapBytes),
                  Machine::kHeapBase)
            << procs;
    }
}
