/**
 * @file
 * Tests for the sharing profiler: true vs. false sharing classification
 * from sub-line word offsets on hand-built access patterns, hot-line
 * ranking, and an end-to-end run in which a deliberately false-shared
 * line must be flagged.
 */

#include <gtest/gtest.h>

#include "obs/trace.hh"
#include "sim/machine.hh"

using namespace ccnuma;
using namespace ccnuma::sim;
using obs::EventKind;
using obs::SharingProfiler;
using Class = obs::SharingProfiler::Class;

namespace {

constexpr std::uint32_t kLine = 128;
constexpr std::uint32_t kPage = 16u << 10;

} // namespace

TEST(SharingProfiler, SingleProcessorLineIsPrivate)
{
    SharingProfiler sp(kLine, kPage);
    sp.noteAccess(3, 0x1000, true);
    sp.noteAccess(3, 0x1008, false);
    const auto r = sp.report(0x1000);
    EXPECT_EQ(r.cls, Class::Private);
    EXPECT_EQ(r.procsTouched, 1);
    EXPECT_EQ(r.wordsTouched, 2);
    EXPECT_EQ(r.wordsShared, 0);
}

TEST(SharingProfiler, MultipleReadersNeverWrittenIsReadShared)
{
    SharingProfiler sp(kLine, kPage);
    sp.noteAccess(0, 0x2000, false);
    sp.noteAccess(1, 0x2000, false);
    sp.noteAccess(2, 0x2010, false);
    const auto r = sp.report(0x2000);
    EXPECT_EQ(r.cls, Class::ReadShared);
    EXPECT_EQ(r.procsTouched, 3);
    EXPECT_EQ(r.reads, 3u);
    EXPECT_EQ(r.writes, 0u);
    EXPECT_EQ(r.wordsShared, 1) << "word 0 was read by two processors";
}

TEST(SharingProfiler, WrittenWordUsedByTwoProcsIsTrueSharing)
{
    SharingProfiler sp(kLine, kPage);
    sp.noteAccess(0, 0x3000, true);  // p0 writes word 0
    sp.noteAccess(1, 0x3000, false); // p1 reads the same word
    const auto r = sp.report(0x3000);
    EXPECT_EQ(r.cls, Class::TrueSharing);
    EXPECT_EQ(r.wordsShared, 1);
}

TEST(SharingProfiler, DisjointWordsPerProcIsFalseSharing)
{
    SharingProfiler sp(kLine, kPage);
    // Four processors each hammer their own 8-byte slot of one line.
    for (int round = 0; round < 3; ++round)
        for (int p = 0; p < 4; ++p)
            sp.noteAccess(p, 0x4000 + p * 8, true);
    const auto r = sp.report(0x4000);
    EXPECT_EQ(r.cls, Class::FalseSharing);
    EXPECT_EQ(r.procsTouched, 4);
    EXPECT_EQ(r.wordsTouched, 4);
    EXPECT_EQ(r.wordsShared, 0);
    EXPECT_EQ(r.writes, 12u);
}

TEST(SharingProfiler, OneOverlappingWordFlipsFalseToTrue)
{
    SharingProfiler sp(kLine, kPage);
    sp.noteAccess(0, 0x5000, true);
    sp.noteAccess(1, 0x5008, true);
    EXPECT_EQ(sp.report(0x5000).cls, Class::FalseSharing);
    sp.noteAccess(1, 0x5000, false); // p1 now reads p0's word
    EXPECT_EQ(sp.report(0x5000).cls, Class::TrueSharing);
}

TEST(SharingProfiler, WideLineTailFoldsIntoLastWordSlot)
{
    // Lines wider than kMaxWords*8 = 256 bytes clamp tail offsets into
    // the last slot; two procs writing different tail offsets therefore
    // (conservatively) read as true sharing rather than crashing.
    SharingProfiler sp(512, kPage);
    sp.noteAccess(0, 0x8000 + 260, true);
    sp.noteAccess(1, 0x8000 + 300, true);
    const auto r = sp.report(0x8000);
    EXPECT_EQ(r.procsTouched, 2);
    EXPECT_EQ(r.wordsTouched, 1);
    EXPECT_EQ(r.cls, Class::TrueSharing);
}

TEST(SharingProfiler, HotLinesRankByCoherenceTraffic)
{
    SharingProfiler sp(kLine, kPage);
    // Line A: modest traffic. Line B: heavy. Line C: accesses only.
    sp.noteAccess(0, 0xa000, true);
    sp.noteAccess(1, 0xa008, true);
    sp.noteConflict(0xa000, EventKind::Invalidation);
    sp.noteAccess(0, 0xb000, true);
    sp.noteAccess(1, 0xb008, true);
    for (int i = 0; i < 5; ++i)
        sp.noteConflict(0xb000, EventKind::Invalidation);
    sp.noteConflict(0xb000, EventKind::MissRemoteDirty);
    sp.noteConflict(0xb000, EventKind::Upgrade);
    sp.noteAccess(0, 0xc000, false);

    const auto hot = sp.hotLines(10);
    ASSERT_EQ(hot.size(), 2u) << "traffic-free lines are excluded";
    EXPECT_EQ(hot[0].line, 0xb000u);
    EXPECT_EQ(hot[0].traffic(), 7u);
    EXPECT_EQ(hot[0].invalidations, 5u);
    EXPECT_EQ(hot[0].dirtyMisses, 1u);
    EXPECT_EQ(hot[0].upgrades, 1u);
    EXPECT_EQ(hot[1].line, 0xa000u);
    // top_n truncates.
    EXPECT_EQ(sp.hotLines(1).size(), 1u);
}

TEST(SharingProfiler, HotPagesAggregateLines)
{
    SharingProfiler sp(kLine, kPage);
    // Two lines in page 0, one line in page 3.
    sp.noteConflict(0x0000, EventKind::Invalidation);
    sp.noteConflict(0x0080, EventKind::Invalidation);
    sp.noteConflict(3 * kPage, EventKind::Upgrade);
    const auto pages = sp.hotPages(10);
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0].page, 0u);
    EXPECT_EQ(pages[0].traffic(), 2u);
    EXPECT_EQ(pages[0].linesTracked, 2);
    EXPECT_EQ(pages[1].page, 3u);
    EXPECT_EQ(pages[1].linesTracked, 1);
}

TEST(SharingProfiler, UnseenLineReportsZeroedPrivate)
{
    SharingProfiler sp(kLine, kPage);
    const auto r = sp.report(0xdead000);
    EXPECT_EQ(r.cls, Class::Private);
    EXPECT_EQ(r.traffic(), 0u);
    EXPECT_EQ(sp.linesTracked(), 0u);
}

TEST(SharingProfilerIntegration, DeliberateFalseSharingIsFlagged)
{

    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.trace.intervals = true;
    cfg.trace.sharing = true;
    Machine m(cfg);
    // One line, each processor updating its own 8-byte counter slot:
    // the textbook false-sharing bug.
    const Addr line = m.allocLine();
    const BarrierId bar = m.barrierCreate();
    const RunResult r = m.run([line, bar](Cpu& cpu) -> Task {
        for (int round = 0; round < 8; ++round) {
            cpu.write(line + cpu.id() * 8);
            co_await cpu.barrier(bar);
        }
        co_return;
    });
    ASSERT_NE(r.trace, nullptr);

    const auto rep = r.trace->sharing().report(line);
    EXPECT_EQ(rep.cls, Class::FalseSharing);
    EXPECT_EQ(rep.procsTouched, 4);
    EXPECT_EQ(rep.wordsShared, 0);
    EXPECT_GT(rep.traffic(), 0u) << "the line must actually ping-pong";

    // The bad line shows up in the hot-line ranking.
    bool found = false;
    for (const auto& l : r.trace->sharing().hotLines(10))
        if (l.line == line) {
            found = true;
            EXPECT_EQ(l.cls, Class::FalseSharing);
        }
    EXPECT_TRUE(found);
}

TEST(SharingProfilerIntegration, TrueSharingProducerConsumer)
{

    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.trace.sharing = true;
    Machine m(cfg);
    // Proc 0 writes word 0; proc 1 reads the same word: actual
    // communication through the line.
    const Addr line = m.allocLine();
    const BarrierId bar = m.barrierCreate();
    const RunResult r = m.run([line, bar](Cpu& cpu) -> Task {
        for (int round = 0; round < 4; ++round) {
            if (cpu.id() == 0)
                cpu.write(line);
            co_await cpu.barrier(bar);
            if (cpu.id() == 1)
                cpu.read(line);
            co_await cpu.barrier(bar);
        }
        co_return;
    });
    ASSERT_NE(r.trace, nullptr);
    const auto rep = r.trace->sharing().report(line);
    EXPECT_EQ(rep.cls, Class::TrueSharing);
    EXPECT_GE(rep.wordsShared, 1);
}
