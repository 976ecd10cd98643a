/**
 * @file
 * Unit tests for the observability building blocks: trace ring buffer
 * wrap/overflow accounting, power-of-two latency histograms, the
 * streaming JSON writer and the event-name schema.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "obs/json.hh"
#include "obs/trace.hh"

using namespace ccnuma;
using obs::EventKind;
using obs::JsonWriter;
using obs::LatencyHisto;
using obs::TraceBuffer;
using obs::TraceRecord;

namespace {

TraceRecord
rec(std::uint64_t seq)
{
    TraceRecord r;
    r.start = seq;
    r.addr = seq * 128;
    r.proc = static_cast<std::int16_t>(seq % 8);
    return r;
}

std::vector<std::uint64_t>
starts(const TraceBuffer& b)
{
    std::vector<std::uint64_t> out;
    b.forEach([&](const TraceRecord& r) { out.push_back(r.start); });
    return out;
}

} // namespace

TEST(TraceBuffer, NoWrapKeepsEverythingInOrder)
{
    TraceBuffer b(8);
    for (std::uint64_t i = 0; i < 5; ++i)
        b.push(rec(i));
    EXPECT_EQ(b.capacity(), 8u);
    EXPECT_EQ(b.size(), 5u);
    EXPECT_EQ(b.recorded(), 5u);
    EXPECT_EQ(b.dropped(), 0u);
    EXPECT_EQ(starts(b), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(TraceBuffer, WrapOverwritesOldestAndCountsDrops)
{
    TraceBuffer b(8);
    for (std::uint64_t i = 0; i < 20; ++i)
        b.push(rec(i));
    EXPECT_EQ(b.size(), 8u);
    EXPECT_EQ(b.recorded(), 20u);
    EXPECT_EQ(b.dropped(), 12u);
    // Retained records are the newest eight, visited oldest-first.
    EXPECT_EQ(starts(b), (std::vector<std::uint64_t>{12, 13, 14, 15, 16,
                                                     17, 18, 19}));
}

TEST(TraceBuffer, ExactlyFullIsNotYetDropping)
{
    TraceBuffer b(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        b.push(rec(i));
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b.dropped(), 0u);
    b.push(rec(4));
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b.dropped(), 1u);
    EXPECT_EQ(starts(b), (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(TraceBuffer, ZeroCapacityOnlyCounts)
{
    TraceBuffer b(0);
    for (std::uint64_t i = 0; i < 10; ++i)
        b.push(rec(i));
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.recorded(), 10u);
    int visited = 0;
    b.forEach([&](const TraceRecord&) { ++visited; });
    EXPECT_EQ(visited, 0);
}

TEST(LatencyHisto, BasicMoments)
{
    LatencyHisto h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    h.add(100);
    h.add(200);
    h.add(300);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 100u);
    EXPECT_EQ(h.max(), 300u);
    EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(LatencyHisto, PowerOfTwoBucketing)
{
    LatencyHisto h;
    h.add(0); // bucket 0: [0, 2)
    h.add(1);
    h.add(2); // bucket 1: [2, 4)
    h.add(3);
    h.add(1000); // bucket 9: [512, 1024)
    std::vector<std::uint64_t> los, counts;
    h.forEachBucket(
        [&](sim::Cycles lo, sim::Cycles hi, std::uint64_t n) {
            EXPECT_LT(lo, hi);
            los.push_back(lo);
            counts.push_back(n);
        });
    EXPECT_EQ(los, (std::vector<std::uint64_t>{0, 2, 512}));
    EXPECT_EQ(counts, (std::vector<std::uint64_t>{2, 2, 1}));
}

TEST(LatencyHisto, QuantileIsUpperBoundWithinBucket)
{
    LatencyHisto h;
    for (int i = 0; i < 99; ++i)
        h.add(100); // bucket [64, 128)
    h.add(100000); // one outlier
    // Median lands in the dense bucket; the estimate is its upper edge
    // (clamped to max), never below the true value.
    EXPECT_GE(h.quantile(0.5), 100u);
    EXPECT_LE(h.quantile(0.5), 127u);
    // The extreme quantile reaches the outlier's bucket.
    EXPECT_GE(h.quantile(1.0), 100000u);
    EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(EventNames, StableSchema)
{
    EXPECT_STREQ(obs::eventName(EventKind::MissLocal), "miss_local");
    EXPECT_STREQ(obs::eventName(EventKind::MissRemoteDirty),
                 "miss_remote_dirty");
    EXPECT_STREQ(obs::eventName(EventKind::Upgrade), "upgrade");
    EXPECT_STREQ(obs::eventName(EventKind::Invalidation), "invalidation");
    EXPECT_STREQ(obs::eventName(EventKind::PageMigration),
                 "page_migration");
    // Every kind has a distinct, nonempty name.
    std::vector<std::string> names;
    for (int i = 0; i < obs::kNumEventKinds; ++i)
        names.emplace_back(
            obs::eventName(static_cast<EventKind>(i)));
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_FALSE(names[i].empty());
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
    }
}

TEST(JsonWriter, CompactObjectAndArray)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        w.beginObject();
        w.field("name", "fft");
        w.field("procs", 64);
        w.field("ratio", 0.5);
        w.field("ok", true);
        w.beginArray("xs");
        w.field("", std::uint64_t{1});
        w.field("", std::uint64_t{2});
        w.endArray();
        w.endObject();
    }
    EXPECT_EQ(os.str(), "{\"name\":\"fft\",\"procs\":64,\"ratio\":0.5,"
                        "\"ok\":true,\"xs\":[1,2]}");
}

TEST(JsonWriter, EscapesControlAndQuote)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\n\t"),
              "a\\\"b\\\\c\\n\\t");
    // Control characters below 0x20 become \u00XX escapes.
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        w.beginObject();
        w.field("bad", std::numeric_limits<double>::quiet_NaN());
        w.endObject();
    }
    EXPECT_EQ(os.str(), "{\"bad\":null}");
}
