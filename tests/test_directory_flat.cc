/**
 * @file
 * Differential tests for the flat sharded directory storage.
 *
 * Two layers of evidence that the FlatHashMap-based directory behaves
 * exactly like the std::unordered_map it replaced:
 *  - the container itself, exercised with randomized insert/find/erase
 *    mixes against a std::unordered_map oracle (backward-shift deletion
 *    is the subtle part, so the mixes are erase-heavy and collision-
 *    heavy), including the extreme line addresses next to the
 *    empty-slot sentinel key;
 *  - the whole protocol, by running randomized stress traces on a
 *    hostile tiny-cache machine with the shadow-directory seam enabled
 *    (every DirEntry is mirrored into a reference unordered_map and
 *    compared entry-for-entry at every validateCoherence sweep), and by
 *    checking that a shadowed run is observably identical to a normal
 *    one.
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "check/stress.hh"
#include "sim/directory.hh"
#include "sim/flat_hash.hh"

namespace {

using ccnuma::sim::DirEntry;
using ccnuma::sim::FlatHashMap;

// Sharer bitmap, owner, state and overflow flag pack into 40 bytes, so
// a directory slot with its key is 48.
static_assert(sizeof(DirEntry) == 40);

/// The highest line-aligned address with 128 B lines; only non-aligned
/// keys, such as the empty-slot sentinel ~0, lie above it.
constexpr std::uint64_t kTopLine = ~0ull << 7;

// Randomized op mix against a std::unordered_map oracle. Keys are line
// addresses: page-strided multiples of the line size, the same
// low-entropy pattern the directory sees. With `edge_keys`, one op in
// four uses line 0 or kTopLine instead.
void
differentialRun(std::uint64_t seed, std::uint64_t key_space, int ops,
                bool edge_keys = false)
{
    std::mt19937_64 rng(seed);
    FlatHashMap<std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    auto randKey = [&]() -> std::uint64_t {
        if (edge_keys && rng() % 4 == 0)
            return rng() % 2 ? 0 : kTopLine;
        return (rng() % key_space) * 128; // line-aligned addresses
    };

    for (int i = 0; i < ops; ++i) {
        const std::uint64_t key = randKey();
        switch (rng() % 4) {
          case 0:   // insert or overwrite
          case 1: {
            const std::uint64_t v = rng();
            flat[key] = v;
            ref[key] = v;
            break;
          }
          case 2: { // erase
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
            break;
          }
          case 3: { // lookup
            const std::uint64_t* fv = flat.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(fv != nullptr, it != ref.end());
            if (fv) {
                EXPECT_EQ(*fv, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size());
    }

    // Full-content sweep both ways.
    std::size_t seen = 0;
    flat.forEach([&](std::uint64_t k, const std::uint64_t& v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "flat has spurious key " << k;
        EXPECT_EQ(v, it->second);
        ++seen;
    });
    EXPECT_EQ(seen, ref.size());
    for (const auto& [k, v] : ref) {
        const std::uint64_t* fv = flat.find(k);
        ASSERT_NE(fv, nullptr) << "flat lost key " << k;
        EXPECT_EQ(*fv, v);
    }
}

TEST(FlatHashMap, MatchesUnorderedMapDenseKeys)
{
    // Tiny key space: constant churn on the same slots, maximal
    // backward-shift activity.
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
        differentialRun(seed, 32, 4000);
}

TEST(FlatHashMap, MatchesUnorderedMapSparseKeys)
{
    // Wide key space: growth/rehash dominates.
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        differentialRun(seed, 1 << 16, 8000);
}

TEST(FlatHashMap, ExtremeLineAddressesAreOrdinaryKeys)
{
    // Line 0 (~0 + 1) and the top line-aligned address are the keys
    // nearest the empty-slot sentinel ~0; both must insert, find and
    // erase like any other key, through growth and backward shifts.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        differentialRun(seed, 32, 4000, /*edge_keys=*/true);
        differentialRun(seed, 1 << 12, 8000, /*edge_keys=*/true);
    }
    FlatHashMap<int> flat;
    flat[0] = 1;
    flat[kTopLine] = 2;
    ASSERT_NE(flat.find(0), nullptr);
    ASSERT_NE(flat.find(kTopLine), nullptr);
    EXPECT_EQ(*flat.find(0), 1);
    EXPECT_EQ(*flat.find(kTopLine), 2);
    EXPECT_EQ(flat.size(), 2u);
}

TEST(FlatHashMap, SentinelKeyIsNeverStored)
{
    FlatHashMap<int> flat;
    flat[128] = 1;
    constexpr std::uint64_t sentinel = FlatHashMap<int>::kEmptyKey;
    // Lookups of the sentinel find nothing and change nothing.
    EXPECT_EQ(flat.find(sentinel), nullptr);
    EXPECT_FALSE(flat.erase(sentinel));
    EXPECT_EQ(flat.size(), 1u);
#ifdef NDEBUG
    GTEST_SKIP() << "inserting the sentinel is an assert()";
#else
    EXPECT_DEATH(flat[sentinel] = 2, "kEmptyKey");
#endif
}

TEST(FlatHashMap, EraseDuringCollisionRuns)
{
    // Force long probe chains by inserting many keys, then erase them
    // in a different order while verifying the remainder stays findable.
    FlatHashMap<int> flat;
    std::unordered_map<std::uint64_t, int> ref;
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t k = rng() % 4096 * 128;
        if (!ref.count(k))
            keys.push_back(k);
        flat[k] = i;
        ref[k] = i;
    }
    std::shuffle(keys.begin(), keys.end(), rng);
    for (const std::uint64_t k : keys) {
        ASSERT_TRUE(flat.erase(k));
        ref.erase(k);
        ASSERT_EQ(flat.size(), ref.size());
        for (const auto& [k2, v2] : ref) {
            const int* fv = flat.find(k2);
            ASSERT_NE(fv, nullptr);
            ASSERT_EQ(*fv, v2);
        }
    }
    EXPECT_TRUE(flat.empty());
}

// ---- whole-protocol differential via the shadow seam ----

ccnuma::check::StressOptions
hostileOptions(std::uint64_t seed, bool shadow)
{
    ccnuma::check::StressOptions opt;
    opt.seed = seed;
    opt.procs = 8;
    opt.opsPerProc = 300;
    opt.validateEvery = 64; // frequent sweeps => frequent shadowDiff
    opt.machine.check.shadowDirectory = shadow;
    return opt;
}

TEST(DirectoryShadow, StressTracesMatchReferenceMap)
{
    // 20 seeds on the hostile tiny-cache stress machine. Any divergence
    // between the flat sharded storage and the reference unordered_map
    // fails validateCoherence, which the report surfaces.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const ccnuma::check::StressReport rep =
            ccnuma::check::runStress(hostileOptions(seed, true));
        EXPECT_FALSE(rep.failed)
            << "seed " << seed << ": " << rep.message;
        EXPECT_GT(rep.validations, 0u) << "seed " << seed;
    }
}

TEST(DirectoryShadow, ShadowingIsObservablyInert)
{
    // The shadow seam must not perturb the simulation: a shadowed run
    // and a plain run of the same seed produce identical reports
    // (StressReport equality includes a hash of every processor's
    // timing and counter state, i.e. all transaction classifications).
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        ccnuma::check::StressReport on =
            ccnuma::check::runStress(hostileOptions(seed, true));
        ccnuma::check::StressReport off =
            ccnuma::check::runStress(hostileOptions(seed, false));
        EXPECT_EQ(on, off) << "seed " << seed;
    }
}

TEST(DirectoryShadow, ShadowDiffReportsInjectedDivergence)
{
    // White-box: the public API mirrors every mutation (that is the
    // point of the seam), so the only way to fabricate a divergence is
    // to corrupt a live entry behind the shadow's back. Park the
    // deferred-mirror slot on a different line first, or the next flush
    // would launder the corruption into the reference map too.
    ccnuma::sim::Directory dir(4);
    dir.enableShadow(true);
    ccnuma::sim::DirEntry& e = dir.lookup(0x1000);
    e.state = ccnuma::sim::DirState::Shared;
    e.sharers.add(3);
    EXPECT_TRUE(dir.shadowDiff().empty());
    dir.lookup(0x2000); // pending mirror now tracks 0x2000
    const ccnuma::sim::DirEntry* live = dir.probe(0x1000);
    ASSERT_NE(live, nullptr);
    const_cast<ccnuma::sim::DirEntry*>(live)->sharers.add(5);
    EXPECT_FALSE(dir.shadowDiff().empty());
}

} // namespace
