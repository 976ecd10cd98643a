/**
 * @file
 * Tests for the page-block directory storage.
 *
 * Two layers of evidence that the directory behaves like a map from
 * line address to entry, holding a line from its lookup() until its
 * drop():
 *  - the container itself, driven by seeded random lookup / mutate /
 *    drop / probe mixes against a std::map reference and checked in
 *    full after every step, over dense lines, one line per page and
 *    far-apart pages; blocks() must equal the number of pages with a
 *    held line throughout, so block reclamation is checked exactly;
 *  - a whole machine whose footprint is many times its aggregate L2,
 *    which must end holding no more blocks than pages with a cached
 *    line.
 * The directory's final state after whole-protocol stress runs is
 * pinned by the stress digests in test_protocols.cc.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/directory.hh"
#include "sim/machine.hh"

namespace {

using ccnuma::sim::DirEntry;
using ccnuma::sim::Directory;
using ccnuma::sim::DirState;
using ccnuma::sim::LineAddr;

// Sharer bitmap, owner, state and overflow flag pack into 40 bytes, so
// a block of the Origin's 128 lines per page is 5 KB of entries.
static_assert(sizeof(DirEntry) == 40);

constexpr std::uint32_t kPage = 16u << 10;
constexpr std::uint32_t kLine = 128;
constexpr std::uint32_t kLinesPerPage = kPage / kLine;

using RefMap = std::map<LineAddr, DirEntry>;

/// Every observable of `dir` against the reference: held-entry count,
/// block count (one per page with a held line), and every held entry in
/// address order.
void
expectMatches(const Directory& dir, const RefMap& ref)
{
    ASSERT_EQ(dir.size(), ref.size());
    std::set<LineAddr> pages;
    for (const auto& [line, e] : ref)
        pages.insert(line / kPage);
    ASSERT_EQ(dir.blocks(), pages.size());
    auto it = ref.begin();
    dir.forEach([&](LineAddr line, const DirEntry& e) {
        ASSERT_NE(it, ref.end()) << "spurious line " << line;
        EXPECT_EQ(line, it->first);
        EXPECT_EQ(e, it->second) << "line " << line;
        ++it;
    });
    EXPECT_EQ(it, ref.end());
}

/// A caller-side mutation: what MemSys does to an entry between its
/// lookup() and the next Directory call. Case 0 leaves it as it is, so
/// some held entries stay Uncached.
void
mutate(DirEntry& e, std::mt19937_64& rng)
{
    const auto p = static_cast<ccnuma::sim::ProcId>(rng() % 64);
    switch (rng() % 4) {
      case 0:
        break;
      case 1:
        e.state = DirState::Shared;
        e.sharers.add(p);
        break;
      case 2:
        e.state = DirState::Dirty;
        e.owner = p;
        e.sharers.clear();
        e.sharers.add(p);
        break;
      case 3:
        e.state = DirState::Owned;
        e.owner = p;
        e.sharers.add(p);
        e.overflow = rng() % 2;
        break;
    }
}

/// Seeded random lookup / mutate / drop / probe mix over the lines
/// `lineAt` draws, checked in full after every step; ends by dropping
/// every held line, after which no block may remain.
template <typename LineAt>
void
differentialRun(std::uint64_t seed, int ops, LineAt lineAt)
{
    std::mt19937_64 rng(seed);
    Directory dir(kPage, kLine);
    RefMap ref;
    for (int i = 0; i < ops; ++i) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << i);
        const LineAddr line = lineAt(rng);
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2: { // lookup, then the caller's mutation
            DirEntry& e = dir.lookup(line);
            DirEntry& want = ref[line];
            ASSERT_EQ(e, want);
            mutate(e, rng);
            want = e;
            break;
          }
          case 3:
          case 4: { // return to Uncached, then drop
            if (const DirEntry* held = dir.probe(line)) {
                DirEntry& e = const_cast<DirEntry&>(*held);
                e.state = DirState::Uncached;
                e.owner = ccnuma::sim::kNoProc;
                e.sharers.clear();
            }
            dir.drop(line);
            ref.erase(line);
            break;
          }
          default: { // probe
            const DirEntry* got = dir.probe(line);
            const auto it = ref.find(line);
            ASSERT_EQ(got != nullptr, it != ref.end());
            if (got) {
                EXPECT_EQ(*got, it->second);
            }
            break;
          }
        }
        expectMatches(dir, ref);
        if (testing::Test::HasFailure())
            return;
    }
    // Drop in a random order: blocks go as their last line goes.
    std::vector<LineAddr> held;
    for (const auto& [line, e] : ref)
        held.push_back(line);
    std::shuffle(held.begin(), held.end(), rng);
    for (const LineAddr line : held) {
        dir.lookup(line) = DirEntry{};
        dir.drop(line);
        ref.erase(line);
        expectMatches(dir, ref);
    }
    EXPECT_EQ(dir.blocks(), 0u);
    EXPECT_EQ(dir.size(), 0u);
}

TEST(Directory, MatchesReferenceMapDenseLines)
{
    // Three pages' worth of lines: constant churn within few blocks,
    // which are freed and reallocated as they empty.
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
        differentialRun(seed, 3000, [](std::mt19937_64& rng) {
            return LineAddr{rng() % (3 * kLinesPerPage)} * kLine;
        });
}

TEST(Directory, MatchesReferenceMapOneLinePerPage)
{
    // Every block holds at most one line: each drop frees a block.
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        differentialRun(seed, 3000, [](std::mt19937_64& rng) {
            return LineAddr{rng() % 64} * kPage +
                   LineAddr{rng() % 2} * (kPage - kLine);
        });
}

TEST(Directory, MatchesReferenceMapFarApartPages)
{
    // Sparse pages across a large heap, with a few lines each, so the
    // page vector grows while blocks are held.
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        differentialRun(seed, 3000, [](std::mt19937_64& rng) {
            return LineAddr{rng() % 32} * 257 * kPage +
                   LineAddr{rng() % 4} * kLine;
        });
}

TEST(Directory, EntriesStayPutWhileThePageVectorGrows)
{
    Directory dir(kPage, kLine);
    DirEntry& e = dir.lookup(1 << 20);
    e.state = DirState::Shared;
    e.sharers.add(3);
    for (LineAddr page = 128; page <= 1 << 16; page *= 2)
        dir.lookup(page * kPage).state = DirState::Shared;
    EXPECT_EQ(&dir.lookup(1 << 20), &e);
    EXPECT_EQ(e.state, DirState::Shared);
    EXPECT_TRUE(e.sharers.contains(3));
}

TEST(Directory, DroppedLineComesBackFresh)
{
    // Like an erased map entry: a later lookup sees DirEntry{}, even
    // when the block survived because a neighbour is still held.
    Directory dir(kPage, kLine);
    dir.lookup(0).state = DirState::Shared;
    DirEntry& e = dir.lookup(kLine);
    e.state = DirState::Dirty;
    e.owner = 5;
    e.overflow = true;
    dir.drop(kLine);
    EXPECT_EQ(dir.probe(kLine), nullptr);
    EXPECT_EQ(dir.blocks(), 1u);
    EXPECT_EQ(dir.lookup(kLine), DirEntry{});
}

TEST(Directory, LargeFootprintHoldsOnlyCachedPages)
{
    // 4 processors with 64 KB L2s stream over 16 times their aggregate
    // cache: the directory ends with a block only for the pages that
    // still hold a cached line, not one per page ever touched.
    namespace sim = ccnuma::sim;
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(4);
    cfg.cacheBytes = 64 << 10;
    sim::Machine m(cfg);
    const std::uint64_t l2 = cfg.cacheBytes * cfg.numProcs;
    const std::uint64_t bytes = 16 * l2;
    ASSERT_GE(bytes, 8 * l2);
    const sim::Addr base = m.alloc(bytes);
    const sim::RunResult r = m.run([&](sim::Cpu& cpu) -> sim::Task {
        const std::uint64_t share = bytes / cfg.numProcs;
        const sim::Addr mine = base + share * cpu.id();
        for (std::uint64_t off = 0; off < share; off += cfg.lineBytes) {
            if (off % 1024 == 0)
                co_await cpu.checkpoint();
            if ((off / cfg.lineBytes) % 3 == 0)
                cpu.write(mine + off);
            else
                cpu.read(mine + off);
        }
    });
    EXPECT_GT(r.totals().loads, 0u);

    std::set<std::uint64_t> cachedPages;
    for (int p = 0; p < cfg.numProcs; ++p)
        m.mem().cache(p).forEachLine([&](sim::Addr a, sim::LineState) {
            cachedPages.insert(a / cfg.pageBytes);
        });
    const Directory& dir = m.mem().directory();
    EXPECT_GT(dir.blocks(), 0u);
    EXPECT_LE(dir.blocks(), cachedPages.size());
    EXPECT_LT(dir.blocks(), bytes / cfg.pageBytes);
    EXPECT_EQ(m.mem().validateCoherence(), "");
}

} // namespace
