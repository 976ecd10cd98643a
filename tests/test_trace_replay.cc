/**
 * @file
 * Trace record/replay differential suite: a trace recorded from an
 * application and replayed through apps::TraceReplayApp must reproduce
 * the recording run bit-for-bit — the same RunResult fields and the
 * same MetricsSink JSON bytes. Also covers the text format round trip,
 * strict-parse error reporting, cross-machine replay, and the
 * semantic-failure path (a well-formed trace whose op arguments are
 * invalid throws mid-simulation, not at parse time).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "apps/trace.hh"
#include "bit_identity.hh"
#include "core/metrics.hh"
#include "sim/config.hh"
#include "sim/machine.hh"

namespace {

using namespace ccnuma;

std::string
metricsJson(const sim::MachineConfig& cfg, const sim::RunResult& r)
{
    core::MetricsSink sink = core::MetricsSink::inMemory();
    sink.setMachine(cfg);
    sink.add("run", r);
    return sink.str();
}

/// Record `name` at `size` on `cfg`, replay the trace on an identically
/// configured fresh machine, and demand byte equality end to end.
void
expectReplayExact(const std::string& name, std::uint64_t size,
                  sim::MachineConfig cfg)
{
    SCOPED_TRACE(name);
    auto app = apps::makeApp(name, size);
    const apps::RecordedTrace rec = recordTrace(cfg, *app);

    EXPECT_EQ(rec.trace.procs, cfg.numProcs);
    EXPECT_GT(rec.trace.totalOps(), 0u);

    apps::TraceReplayApp replay(rec.trace);
    EXPECT_EQ(replay.name(), "trace:" + name);
    sim::Machine m(cfg);
    replay.setup(m);
    const sim::RunResult r = m.run(replay.program());

    testutil::expectIdentical(rec.run, r, "replay of " + name);
    EXPECT_EQ(metricsJson(cfg, rec.run), metricsJson(cfg, r));
}

TEST(TraceReplay, FftExact)
{
    expectReplayExact("fft", 1u << 10, sim::MachineConfig::origin2000(4));
}

TEST(TraceReplay, OceanExact)
{
    expectReplayExact("ocean", 66, sim::MachineConfig::origin2000(4));
}

// Lock-heavy app: exercises Acquire/Release/Rmw/FetchOp replay.
TEST(TraceReplay, RaytraceExact)
{
    expectReplayExact("raytrace", 32, sim::MachineConfig::origin2000(4));
}

// Timing-VARIANT app (task stealing): its op streams change with the
// machine's timing, but a recorded trace bakes the dynamic decisions
// into the streams, so trace replay is still exact.
TEST(TraceReplay, TimingVariantAppExact)
{
    ASSERT_FALSE(apps::timingInvariant("volrend"));
    expectReplayExact("volrend", 32, sim::MachineConfig::origin2000(4));
}

/// `name`'s recorded op streams on `cfg` with the Checkpoint ops
/// dropped: whether a nested checkpoint fires (and so records a second
/// Checkpoint) depends on the quantum, but nothing else in a stream
/// may.
std::vector<std::vector<apps::TraceOp>>
streamsWithoutCheckpoints(const std::string& name,
                          const sim::MachineConfig& cfg)
{
    auto app = apps::makeApp(name, apps::goldenSize(name));
    std::vector<std::vector<apps::TraceOp>> ops =
        recordTrace(cfg, *app).trace.ops;
    for (std::vector<apps::TraceOp>& stream : ops)
        std::erase_if(stream, [](const apps::TraceOp& op) {
            return op.kind == sim::OpKind::Checkpoint;
        });
    return ops;
}

// apps::timingInvariant's contract: every app it names records the
// same op streams on a machine with different timing (protocol,
// latencies, quantum). Volrend, which steals tasks, is the control:
// its streams do change, so the comparison can see a difference.
TEST(TraceReplay, TimingInvariantAppsRecordTheSameStreams)
{
    const sim::MachineConfig base = sim::MachineConfig::origin2000(8);
    sim::MachineConfig other = base;
    ASSERT_TRUE(other.protocol.parse("moesi"));
    other.memCycles *= 3;
    other.linkCycles *= 2;
    other.quantum = 137;

    for (const std::string& name : apps::listApps()) {
        if (!apps::timingInvariant(name))
            continue;
        SCOPED_TRACE(name);
        EXPECT_TRUE(streamsWithoutCheckpoints(name, base) ==
                    streamsWithoutCheckpoints(name, other));
    }
    EXPECT_FALSE(streamsWithoutCheckpoints("volrend", base) ==
                 streamsWithoutCheckpoints("volrend", other));
}

TEST(TraceReplay, ReplayIsDeterministicAcrossRuns)
{
    auto app = apps::makeApp("radix", 1u << 12);
    const sim::MachineConfig cfg = sim::MachineConfig::origin2000(8);
    const apps::RecordedTrace rec = recordTrace(cfg, *app);

    std::string first;
    for (int i = 0; i < 2; ++i) {
        apps::TraceReplayApp replay(rec.trace);
        sim::Machine m(cfg);
        replay.setup(m);
        const std::string j = metricsJson(cfg, m.run(replay.program()));
        if (i == 0)
            first = j;
        else
            EXPECT_EQ(first, j);
    }
    EXPECT_EQ(first, metricsJson(cfg, rec.run));
}

// A trace is a machine-independent workload description: replaying on
// a different protocol/directory must run (different numbers, same
// totals of issued operations).
TEST(TraceReplay, ReplayOnDifferentMachine)
{
    auto app = apps::makeApp("fft", 1u << 10);
    sim::MachineConfig rec_cfg = sim::MachineConfig::origin2000(4);
    const apps::RecordedTrace rec = recordTrace(rec_cfg, *app);

    sim::MachineConfig other = sim::MachineConfig::origin2000(4);
    ASSERT_TRUE(other.protocol.parse("moesi"));
    ASSERT_TRUE(other.dirFormat.parse("coarse:4"));
    apps::TraceReplayApp replay(rec.trace);
    sim::Machine m(other);
    replay.setup(m);
    const sim::RunResult r = m.run(replay.program());

    const auto a = rec.run.totals();
    const auto b = r.totals();
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.barriersPassed, b.barriersPassed);
    EXPECT_EQ(a.lockAcquires, b.lockAcquires);
}

// The recorded text is pinned, not only replayable: fft runs its
// phases as nested coroutines (a nested checkpoint is followed by the
// driver's own checkpoint, two `y` ops), and raytrace/volrend dequeue
// through a nested task-queue lock acquire. A scheduler change that
// skipped either suspension would drop ops from the streams while
// every replay above still matched its own recording.
TEST(TraceReplay, RecordedTextMatchesPinnedHash)
{
    struct Pin {
        const char* app;
        std::uint64_t size;
        int procs;
        const char* hash;
    };
    const Pin pins[] = {
        {"fft", 1u << 10, 4, "533c28b00c03718e"},
        {"fft", 1u << 10, 8, "a270c00de7fa1c36"},
        {"raytrace", 32, 4, "8f570c3549eeab8f"},
        {"raytrace", 32, 8, "2b19bf480d296a72"},
        {"volrend", 32, 4, "b61f2cfafdc1d592"},
        {"volrend", 32, 8, "f2c858a0f5a70c07"},
    };
    for (const Pin& pin : pins) {
        auto app = apps::makeApp(pin.app, pin.size);
        const apps::RecordedTrace rec =
            recordTrace(sim::MachineConfig::origin2000(pin.procs), *app);
        EXPECT_EQ(rec.trace.hashHex(), pin.hash)
            << pin.app << " P=" << pin.procs;
    }
}

TEST(TraceReplay, ProcsMismatchThrows)
{
    auto app = apps::makeApp("fft", 1u << 10);
    const apps::RecordedTrace rec =
        recordTrace(sim::MachineConfig::origin2000(4), *app);
    apps::TraceReplayApp replay(rec.trace);
    sim::Machine m(sim::MachineConfig::origin2000(8));
    EXPECT_THROW(replay.setup(m), std::invalid_argument);
}

TEST(TraceFormat, SerializeParseRoundTrip)
{
    auto app = apps::makeApp("ocean", 66);
    const apps::RecordedTrace rec =
        recordTrace(sim::MachineConfig::origin2000(4), *app);

    const std::string text = rec.trace.serialize();
    const apps::TraceParseResult parsed = apps::parseTrace(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.trace.app, rec.trace.app);
    EXPECT_EQ(parsed.trace.procs, rec.trace.procs);
    EXPECT_EQ(parsed.trace.setup, rec.trace.setup);
    EXPECT_EQ(parsed.trace.ops, rec.trace.ops);
    EXPECT_EQ(parsed.trace.serialize(), text);
    EXPECT_EQ(parsed.trace.hashHex(), rec.trace.hashHex());
}

TEST(TraceFormat, HashChangesWithContent)
{
    apps::Trace t;
    t.procs = 1;
    t.ops.resize(1);
    t.ops[0].push_back({sim::OpKind::Read, 1u << 20});
    const std::string h1 = t.hashHex();
    EXPECT_EQ(h1.size(), 16u);
    t.ops[0].push_back({sim::OpKind::Checkpoint, 0});
    EXPECT_NE(t.hashHex(), h1);
}

TEST(TraceFormat, ParseErrorsCarryLineNumbers)
{
    const auto expectError = [](const std::string& text,
                                const std::string& fragment) {
        SCOPED_TRACE(fragment);
        const apps::TraceParseResult r = apps::parseTrace(text);
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("line "), std::string::npos) << r.error;
        EXPECT_NE(r.error.find(fragment), std::string::npos) << r.error;
    };
    expectError("", "ccnuma-trace v1");
    expectError("ccnuma-trace v2\n", "ccnuma-trace v1");
    expectError("ccnuma-trace v1\nops 0 0\nend\n", "procs");
    expectError("ccnuma-trace v1\nprocs 0\n", "procs");
    expectError("ccnuma-trace v1\nprocs 1\nfrobnicate 3\n",
                "bad setup line");
    expectError("ccnuma-trace v1\nprocs 1\nalloc 64\n",
                "unexpected end of input");
    expectError("ccnuma-trace v1\nprocs 2\nops 1 0\nops 0 0\nend\n",
                "processor 0");
    expectError("ccnuma-trace v1\nprocs 1\nops 0 2\nr 64\n",
                "unexpected end of input");
    expectError("ccnuma-trace v1\nprocs 1\nops 0 1\nq 64\nend\n",
                "unknown op");
    expectError("ccnuma-trace v1\nprocs 1\nops 0 1\nr\nend\n",
                "needs one number");
    expectError("ccnuma-trace v1\nprocs 1\nops 0 1\ny 3\nend\n",
                "no argument");
    expectError("ccnuma-trace v1\nprocs 1\nops 0 0\n", "end");
    expectError("ccnuma-trace v1\nprocs 1\nops 0 0\nend\njunk\n",
                "trailing content");
}

// The summed allocations of a trace are capped at 1 GiB: the cap is
// accepted, one byte more is a parse error on the line that crosses
// it, and a size that would wrap the sum is no way around it.
TEST(TraceFormat, TotalAllocationIsCapped)
{
    const auto parse = [](const std::string& allocs) {
        return apps::parseTrace("ccnuma-trace v1\nprocs 1\n" + allocs +
                                "ops 0 0\nend\n");
    };
    const std::string cap = std::to_string(apps::kMaxTraceHeapBytes);
    EXPECT_EQ(apps::kMaxTraceHeapBytes, 1ull << 30);
    EXPECT_TRUE(parse("alloc " + cap + "\n").ok);
    EXPECT_TRUE(parse("alloc 1\nalloc " +
                      std::to_string(apps::kMaxTraceHeapBytes - 1) + "\n")
                    .ok);
    for (const std::string& allocs :
         {"alloc " + std::to_string(apps::kMaxTraceHeapBytes + 1) + "\n",
          "alloc 1\nalloc " + cap + "\n",
          std::string("alloc 1\nalloc 18446744073709551615\n")}) {
        const apps::TraceParseResult r = parse(allocs);
        ASSERT_FALSE(r.ok) << allocs;
        EXPECT_NE(r.error.find("trace heap cap"), std::string::npos)
            << r.error;
        const int lines =
            static_cast<int>(std::count(allocs.begin(), allocs.end(), '\n'));
        EXPECT_EQ(r.error.rfind("line " + std::to_string(2 + lines) + ":",
                                0),
                  0u)
            << r.error;
    }
}

// One processor's summed busy cycles are capped at 2^40, so a trace
// cannot wrap simulated time: the cap is accepted, one cycle more is a
// parse error on the line that crosses it, and a count that would wrap
// the sum is no way around it. The cap is per processor.
TEST(TraceFormat, TotalBusyIsCapped)
{
    const auto parse = [](const std::string& ops0, const std::string& ops1) {
        const auto count = [](const std::string& s) {
            return std::to_string(std::count(s.begin(), s.end(), '\n'));
        };
        return apps::parseTrace("ccnuma-trace v1\nprocs 2\nops 0 " +
                                count(ops0) + "\n" + ops0 + "ops 1 " +
                                count(ops1) + "\n" + ops1 + "end\n");
    };
    const std::string cap = std::to_string(apps::kMaxTraceBusyCycles);
    EXPECT_EQ(apps::kMaxTraceBusyCycles, 1ull << 40);
    EXPECT_TRUE(parse("b " + cap + "\n", "b " + cap + "\n").ok);
    EXPECT_TRUE(parse("b 1\nr 1048576\nb " +
                          std::to_string(apps::kMaxTraceBusyCycles - 1) +
                          "\n",
                      "")
                    .ok);
    for (const std::string& ops :
         {"b " + std::to_string(apps::kMaxTraceBusyCycles + 1) + "\n",
          "b 1\ny\nb " + cap + "\n",
          std::string("b 1\nb 18446744073709551615\n")}) {
        const apps::TraceParseResult r = parse(ops, "");
        ASSERT_FALSE(r.ok) << ops;
        EXPECT_NE(r.error.find("trace busy cap"), std::string::npos)
            << r.error;
        const int lines =
            static_cast<int>(std::count(ops.begin(), ops.end(), '\n'));
        EXPECT_EQ(r.error.rfind("line " + std::to_string(3 + lines) + ":",
                                0),
                  0u)
            << r.error;
    }
}

// Addresses outside the replayed heap [1 MiB, heap end) are rejected
// in setup, before the run could grow page tables to reach them.
TEST(TraceReplay, OutOfHeapAccessThrowsInSetup)
{
    // alloc 8192 takes one 16 KB page, the barrier line the next.
    for (const char* op : {"r 1099511627776", "w 0", "pf 1048575",
                           "fo 1081344", "m 18446744073709551615"}) {
        const apps::TraceParseResult r = apps::parseTrace(
            std::string("ccnuma-trace v1\nprocs 1\nalloc 8192\nbarrier "
                        "1\nops 0 2\nr 1048576\n") +
            op + "\nend\n");
        ASSERT_TRUE(r.ok) << r.error;
        apps::TraceReplayApp replay(r.trace);
        sim::Machine m(sim::MachineConfig::origin2000(1));
        EXPECT_THROW(replay.setup(m), std::invalid_argument) << op;
    }
    // The last byte of the heap (the barrier's page) is in range.
    const apps::TraceParseResult r = apps::parseTrace(
        "ccnuma-trace v1\nprocs 1\nalloc 8192\nbarrier 1\nops 0 1\n"
        "fo 1081343\nend\n");
    ASSERT_TRUE(r.ok) << r.error;
    apps::TraceReplayApp replay(r.trace);
    sim::Machine m(sim::MachineConfig::origin2000(1));
    replay.setup(m);
    EXPECT_NO_THROW(m.run(replay.program()));
}

TEST(TraceReplay, OutOfHeapPlaceThrowsInSetup)
{
    for (const char* place :
         {"place 1048576 16385 0", "place 0 16384 0",
          "place 17592186044416 16384 0",
          "place 1048576 18446744073709551615 0",
          "placeacross 1032192 16384", "placeacross 1048576 32768"}) {
        const apps::TraceParseResult r = apps::parseTrace(
            std::string("ccnuma-trace v1\nprocs 1\nalloc 16384\n") +
            place + "\nops 0 1\nr 1048576\nend\n");
        ASSERT_TRUE(r.ok) << r.error;
        apps::TraceReplayApp replay(r.trace);
        sim::Machine m(sim::MachineConfig::origin2000(1));
        EXPECT_THROW(replay.setup(m), std::invalid_argument) << place;
    }
}

// A parseable trace whose op arguments dangle (barrier index with no
// barrier) throws from inside the simulation — the layering the serve
// cache-poisoning regression depends on.
TEST(TraceFormat, DanglingBarrierIndexThrowsMidSim)
{
    const apps::TraceParseResult r = apps::parseTrace(
        "ccnuma-trace v1\nprocs 1\nalloc 4096\nops 0 2\nr 1048576\nB "
        "7\nend\n");
    ASSERT_TRUE(r.ok) << r.error;
    apps::TraceReplayApp replay(r.trace);
    sim::Machine m(sim::MachineConfig::origin2000(1));
    replay.setup(m);
    EXPECT_THROW(m.run(replay.program()), std::out_of_range);
}

// Placement on a node the machine lacks is syntactically fine and
// must fail as a typed exception in setup, not as an abort.
// 2^32 would wrap to node 0 if narrowed unchecked.
TEST(TraceFormat, PlaceOnMissingNodeThrowsInSetup)
{
    for (const char* node : {"999", "4294967296"}) {
        const apps::TraceParseResult r = apps::parseTrace(
            std::string("ccnuma-trace v1\nprocs 1\nalloc 16384\nplace "
                        "1048576 16384 ") +
            node + "\nops 0 1\nr 1048576\nend\n");
        ASSERT_TRUE(r.ok) << r.error;
        apps::TraceReplayApp replay(r.trace);
        sim::Machine m(sim::MachineConfig::origin2000(1));
        EXPECT_THROW(replay.setup(m), std::invalid_argument) << node;
    }
}

// Hand-written minimal trace: the format is writable by humans and
// other tools, not only by the recorder.
TEST(TraceFormat, HandWrittenTraceRuns)
{
    const apps::TraceParseResult r = apps::parseTrace(
        "ccnuma-trace v1\n"
        "app hand\n"
        "procs 2\n"
        "alloc 8192\n"
        "barrier 2\n"
        "ops 0 4\n"
        "b 50\n"
        "w 1048576\n"
        "B 0\n"
        "r 1048704\n"
        "ops 1 4\n"
        "b 10\n"
        "w 1048704\n"
        "B 0\n"
        "r 1048576\n"
        "end\n");
    ASSERT_TRUE(r.ok) << r.error;
    apps::TraceReplayApp replay(r.trace);
    EXPECT_EQ(replay.name(), "trace:hand");
    sim::Machine m(sim::MachineConfig::origin2000(2));
    replay.setup(m);
    const sim::RunResult res = m.run(replay.program());
    const auto totals = res.totals();
    EXPECT_EQ(totals.loads, 2u);
    EXPECT_EQ(totals.stores, 2u);
    EXPECT_EQ(totals.barriersPassed, 2u);
}

} // namespace
