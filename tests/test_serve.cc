/**
 * @file
 * End-to-end protocol tests for ccnuma_serve over real loopback
 * sockets: request/response round trips, typed rejections that leave
 * the connection usable, admission control, result caching (hit on
 * repeat, no poisoning by failures), concurrent-client determinism,
 * and graceful shutdown draining in-flight work. Plus unit tests for
 * the wire parser.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hh"
#include "apps/trace.hh"
#include "check/json.hh"
#include "serve/net.hh"
#include "serve/server.hh"
#include "serve/wire.hh"

namespace {

using namespace ccnuma;
namespace json = check::json;

/// One NDJSON client connection (send a line, await a line).
class TestClient
{
  public:
    explicit TestClient(int port)
        : fd_(serve::connectTcp("127.0.0.1", port)),
          reader_(fd_.get(), 64u << 20)
    {
    }

    void
    send(const std::string& line)
    {
        EXPECT_TRUE(serve::writeAll(fd_.get(), line + "\n"));
    }

    std::string
    recv()
    {
        std::string s;
        EXPECT_EQ(reader_.next(s), serve::ReadStatus::Line);
        return s;
    }

    std::string
    roundTrip(const std::string& line)
    {
        send(line);
        return recv();
    }

  private:
    serve::Fd fd_;
    serve::LineReader reader_;
};

json::Value
parseResponse(const std::string& line)
{
    const json::ParseResult r = json::parse(line);
    EXPECT_TRUE(r.ok) << r.error << " in: " << line;
    return r.root;
}

bool
isOk(const json::Value& resp)
{
    const json::Value* ok = resp.find("ok");
    return ok && ok->kind == json::Value::Kind::Bool && ok->boolean;
}

std::string
field(const json::Value& resp, const std::string& key)
{
    const json::Value* v = resp.find(key);
    return v && v->isString() ? v->str : "";
}

const std::string kStudyReq =
    R"({"id":"s1","type":"study","app":"fft","size":1024,"procs":[2]})";

/// A well-formed trace whose barrier index dangles: parses fine,
/// throws inside the simulation (see test_trace_replay.cc).
const std::string kPoisonTraceReq =
    R"({"id":"p1","type":"trace","trace":"ccnuma-trace v1\nprocs 1\nalloc 4096\nops 0 2\nr 1048576\nB 7\nend\n"})";

/// A well-formed trace that places a page on node 999, which no
/// machine the server builds has: passes parsing and wire validation,
/// fails when the replay sets up its machine.
const std::string kBadPlaceTraceReq =
    R"({"id":"n1","type":"trace","trace":"ccnuma-trace v1\nprocs 1\nalloc 16384\nplace 1048576 16384 999\nops 0 1\nr 1048576\nend\n"})";

/// A well-formed trace that reads 1 TiB past its 16 KB heap: fails in
/// setup, before the page table could grow to reach the address.
const std::string kBadAddrTraceReq =
    R"({"id":"h1","type":"trace","trace":"ccnuma-trace v1\nprocs 1\nalloc 16384\nops 0 1\nr 1099511627776\nend\n"})";

serve::ServerOptions
testOptions()
{
    serve::ServerOptions so;
    so.workers = 2;
    so.jobs = 2;
    return so;
}

TEST(Serve, PingRoundTrip)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    const json::Value resp =
        parseResponse(c.roundTrip(R"({"id":"a","type":"ping"})"));
    EXPECT_TRUE(isOk(resp));
    EXPECT_EQ(field(resp, "id"), "a");
    EXPECT_EQ(field(resp, "type"), "pong");
    server.stop();
}

TEST(Serve, StudyRoundTrip)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    const json::Value resp = parseResponse(c.roundTrip(kStudyReq));
    ASSERT_TRUE(isOk(resp)) << field(resp, "detail");
    EXPECT_EQ(field(resp, "id"), "s1");
    const json::Value* cached = resp.find("cached");
    ASSERT_NE(cached, nullptr);
    EXPECT_FALSE(cached->boolean);

    const json::Value* result = resp.find("result");
    ASSERT_NE(result, nullptr);
    const json::Value* runs = result->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->arr.size(), 1u);
    const json::Value& run = runs->arr[0];
    EXPECT_EQ(field(run, "label"), "fft P=2");
    EXPECT_GT(run.find("runCycles")->asU64(), 0u);
    EXPECT_GT(run.find("seqCycles")->asU64(), 0u);
    EXPECT_GT(run.find("speedup")->asDouble(), 0.0);
    ASSERT_NE(run.find("totals"), nullptr);
    EXPECT_GT(run.find("totals")->find("loads")->asU64(), 0u);
    server.stop();
}

TEST(Serve, TraceRoundTripMatchesRecordingRun)
{
    auto app = apps::makeApp("fft", 1024);
    const apps::RecordedTrace rec =
        recordTrace(sim::MachineConfig::origin2000(4), *app);

    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    std::string traceField;
    for (const char ch : rec.trace.serialize()) {
        if (ch == '\n')
            traceField += "\\n";
        else
            traceField += ch;
    }
    const json::Value resp = parseResponse(c.roundTrip(
        R"({"id":"t1","type":"trace","trace":")" + traceField + "\"}"));
    ASSERT_TRUE(isOk(resp)) << field(resp, "detail");

    // The replayed trace reproduces the recording run exactly.
    const json::Value& run = resp.find("result")->find("runs")->arr[0];
    EXPECT_EQ(field(run, "label"), "trace P=4");
    EXPECT_EQ(run.find("runCycles")->asU64(),
              static_cast<std::uint64_t>(rec.run.time));
    EXPECT_EQ(run.find("totals")->find("loads")->asU64(),
              rec.run.totals().loads);
    EXPECT_EQ(run.find("totals")->find("stores")->asU64(),
              rec.run.totals().stores);
    server.stop();
}

TEST(Serve, MalformedJsonGetsTypedErrorAndConnectionSurvives)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());

    const json::Value err = parseResponse(c.roundTrip("{not json"));
    EXPECT_FALSE(isOk(err));
    EXPECT_EQ(field(err, "error"), "bad-json");
    EXPECT_FALSE(field(err, "detail").empty());

    // Same connection, next request: still served.
    const json::Value pong =
        parseResponse(c.roundTrip(R"({"id":"b","type":"ping"})"));
    EXPECT_TRUE(isOk(pong));
    EXPECT_EQ(server.stats().badRequests, 1u);
    server.stop();
}

TEST(Serve, BadRequestsAreTypedAndSpecific)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    const auto expectBad = [&](const std::string& req,
                               const std::string& detailFragment) {
        SCOPED_TRACE(req);
        const json::Value r = parseResponse(c.roundTrip(req));
        EXPECT_FALSE(isOk(r));
        EXPECT_EQ(field(r, "error"), "bad-request");
        EXPECT_NE(field(r, "detail").find(detailFragment),
                  std::string::npos)
            << field(r, "detail");
    };
    expectBad(R"({"type":"ping"})", "id");
    expectBad(R"({"id":"x","type":"frob"})", "unknown type");
    expectBad(R"({"id":"x","type":"study","procs":[2]})", "app");
    expectBad(
        R"({"id":"x","type":"study","app":"nope","procs":[2]})",
        "unknown app");
    expectBad(R"({"id":"x","type":"study","app":"fft"})", "procs");
    expectBad(
        R"({"id":"x","type":"study","app":"fft","procs":[2],"protocol":"x"})",
        "protocol");
    expectBad(
        R"({"id":"x","type":"study","app":"fft","procs":[2],"zzz":1})",
        "unexpected field");
    expectBad(R"({"id":"x","type":"trace","trace":"bogus"})", "trace:");
    // An absurd declared op count must be a parse error, not an
    // attacker-triggered std::length_error that kills the daemon.
    expectBad(
        R"({"id":"x","type":"trace","trace":"ccnuma-trace v1\nprocs 1\nops 0 999999999999999999\nend\n"})",
        "trace:");
    // Out-of-range counts are rejected, not silently saturated to
    // 2^64-1 by strtoull.
    expectBad(
        R"({"id":"x","type":"study","app":"fft","size":99999999999999999999999,"procs":[2]})",
        "size");
    expectBad(
        R"({"id":"x","type":"study","app":"fft","procs":[2],"deadlineMs":99999999999999999999999})",
        "deadlineMs");
    // Duplicate keys are rejected by the strict parser.
    const json::Value dup = parseResponse(
        c.roundTrip(R"({"id":"x","id":"y","type":"ping"})"));
    EXPECT_FALSE(isOk(dup));
    EXPECT_EQ(field(dup, "error"), "bad-json");
    server.stop();
}

TEST(Serve, OversizedRequestRejectedConnectionSurvives)
{
    serve::ServerOptions so = testOptions();
    so.maxRequestBytes = 1024;
    serve::Server server(so);
    server.start();
    TestClient c(server.port());

    const json::Value err = parseResponse(
        c.roundTrip("{\"pad\":\"" + std::string(4096, 'x') + "\"}"));
    EXPECT_FALSE(isOk(err));
    EXPECT_EQ(field(err, "error"), "too-large");

    const json::Value pong =
        parseResponse(c.roundTrip(R"({"id":"b","type":"ping"})"));
    EXPECT_TRUE(isOk(pong));
    EXPECT_EQ(server.stats().rejectedTooLarge, 1u);
    server.stop();
}

TEST(Serve, RepeatServedFromCacheWithoutResimulation)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());

    const std::string first = c.roundTrip(kStudyReq);
    const std::string second = c.roundTrip(kStudyReq);
    const json::Value r1 = parseResponse(first);
    const json::Value r2 = parseResponse(second);
    ASSERT_TRUE(isOk(r1)) << field(r1, "detail");
    ASSERT_TRUE(isOk(r2));
    EXPECT_FALSE(r1.find("cached")->boolean);
    EXPECT_TRUE(r2.find("cached")->boolean);

    // Identical payload except the cached marker.
    const auto stripCached = [](std::string s) {
        const auto pos = s.find(",\"cached\":");
        const auto end = s.find(',', pos + 1);
        return s.erase(pos, end - pos);
    };
    EXPECT_EQ(stripCached(first), stripCached(second));

    const serve::ServerStats st = server.stats();
    EXPECT_EQ(st.served, 2u);
    EXPECT_EQ(st.cacheHits, 1u);
    EXPECT_EQ(st.simsRun, 1u) << "repeat must not re-simulate";
    server.stop();
}

TEST(Serve, EightConcurrentClientsBitIdenticalResponses)
{
    serve::ServerOptions so = testOptions();
    so.workers = 4;
    serve::Server server(so);
    server.start();

    constexpr int kClients = 8;
    std::vector<std::string> results(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            // Unique id per client: strip it before comparing.
            TestClient c(server.port());
            const std::string req =
                "{\"id\":\"c" + std::to_string(i) +
                R"(","type":"study","app":"ocean","size":66,"procs":[2,4]})";
            // One client computes (cached:false), the rest share the
            // flight (cached:true): compare the payload only.
            std::string resp = c.roundTrip(req);
            results[i] = resp.substr(resp.find("\"result\""));
        });
    for (auto& t : threads)
        t.join();

    for (int i = 1; i < kClients; ++i)
        EXPECT_EQ(results[0], results[i]) << "client " << i;
    // Single-flight: concurrent identical requests share one
    // computation (followers count as cache hits).
    const serve::ServerStats st = server.stats();
    EXPECT_EQ(st.served, static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(st.simsRun, 1u);
    EXPECT_EQ(st.cacheHits, static_cast<std::uint64_t>(kClients - 1));
    server.stop();
}

TEST(Serve, ZeroQueueRejectsOverloaded)
{
    serve::ServerOptions so = testOptions();
    so.maxQueue = 0;
    serve::Server server(so);
    server.start();
    TestClient c(server.port());
    const json::Value r = parseResponse(c.roundTrip(kStudyReq));
    EXPECT_FALSE(isOk(r));
    EXPECT_EQ(field(r, "error"), "overloaded");
    EXPECT_EQ(server.stats().rejectedOverload, 1u);
    server.stop();
}

TEST(Serve, ZeroDeadlineExpires)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    const json::Value r = parseResponse(c.roundTrip(
        R"({"id":"d","type":"study","app":"fft","size":1024,"procs":[2],"deadlineMs":0})"));
    EXPECT_FALSE(isOk(r));
    EXPECT_EQ(field(r, "error"), "expired");
    EXPECT_EQ(server.stats().expired, 1u);
    EXPECT_EQ(server.stats().simsRun, 0u) << "expired work never runs";
    server.stop();
}

TEST(Serve, SimFailureDoesNotPoisonTheCache)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());

    // Twice the same mid-sim-throwing trace: both must re-simulate
    // and both must report the failure (no cached error, no cached
    // stale payload).
    for (int i = 0; i < 2; ++i) {
        const json::Value r =
            parseResponse(c.roundTrip(kPoisonTraceReq));
        EXPECT_FALSE(isOk(r));
        EXPECT_EQ(field(r, "error"), "sim-failed");
    }
    EXPECT_EQ(server.stats().simFailed, 2u);
    EXPECT_EQ(server.stats().simsRun, 2u)
        << "a failed computation must not be served from cache";

    // And the server still works.
    const json::Value ok = parseResponse(c.roundTrip(kStudyReq));
    EXPECT_TRUE(isOk(ok)) << field(ok, "detail");
    server.stop();
}

TEST(Serve, OversizedAppSizeIsSimFailedAndNotCached)
{
    // raytrace holds its image side in an int; 2^31 and 2^32 + 64 must
    // fail the study, not wrap into a different (cached) problem.
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    for (const char* size : {"2147483648", "4294967360"}) {
        for (int i = 0; i < 2; ++i) {
            const json::Value r = parseResponse(c.roundTrip(
                std::string(R"({"id":"w","type":"study","app":"raytrace",)") +
                R"("size":)" + size + R"(,"procs":[2]})"));
            EXPECT_FALSE(isOk(r)) << size;
            EXPECT_EQ(field(r, "error"), "sim-failed") << size;
            EXPECT_NE(field(r, "detail").find("exceeds"), std::string::npos)
                << field(r, "detail");
        }
    }
    EXPECT_EQ(server.stats().simFailed, 4u);
    EXPECT_EQ(server.stats().simsRun, 4u) << "a failure is never cached";
    EXPECT_EQ(server.stats().cacheHits, 0u);
    server.stop();
}

TEST(Serve, OutOfRangePlaceIsTypedErrorAndServerSurvives)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    const json::Value r = parseResponse(c.roundTrip(kBadPlaceTraceReq));
    EXPECT_FALSE(isOk(r));
    EXPECT_EQ(field(r, "id"), "n1");
    EXPECT_EQ(field(r, "error"), "sim-failed");
    EXPECT_NE(field(r, "detail").find("node 999"), std::string::npos)
        << field(r, "detail");

    const json::Value ping =
        parseResponse(c.roundTrip(R"({"id":"a","type":"ping"})"));
    EXPECT_TRUE(isOk(ping));
    server.stop();
}

TEST(Serve, OutOfHeapAddressIsTypedErrorAndServerSurvives)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    const json::Value r = parseResponse(c.roundTrip(kBadAddrTraceReq));
    EXPECT_FALSE(isOk(r));
    EXPECT_EQ(field(r, "id"), "h1");
    EXPECT_EQ(field(r, "error"), "sim-failed");
    EXPECT_NE(field(r, "detail").find("outside the heap"),
              std::string::npos)
        << field(r, "detail");

    const json::Value ping =
        parseResponse(c.roundTrip(R"({"id":"a","type":"ping"})"));
    EXPECT_TRUE(isOk(ping));
    server.stop();
}

TEST(Serve, GracefulStopDrainsInFlightWork)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    c.send(
        R"({"id":"g","type":"study","app":"ocean","size":130,"procs":[4]})");

    // Wait until a worker has started the simulation, then stop the
    // server while it is in flight.
    while (server.stats().simsRun == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::thread stopper([&] { server.stop(); });

    const json::Value r = parseResponse(c.recv());
    EXPECT_TRUE(isOk(r)) << field(r, "detail");
    EXPECT_EQ(field(r, "id"), "g");
    stopper.join();
    EXPECT_EQ(server.stats().served, 1u);
}

TEST(Serve, ConcurrentStopCallersAreSerialized)
{
    serve::Server server(testOptions());
    server.start();
    TestClient c(server.port());
    EXPECT_TRUE(isOk(
        parseResponse(c.roundTrip(R"({"id":"a","type":"ping"})"))));

    // Both callers race the same teardown; one must win and the other
    // block until it completes (double-join would be UB — TSan-pinned).
    std::thread t1([&] { server.stop(); });
    std::thread t2([&] { server.stop(); });
    t1.join();
    t2.join();
    server.stop(); // and it stays idempotent afterwards
}

TEST(Serve, VanishedClientDoesNotKillTheServer)
{
    serve::Server server(testOptions());
    server.start();
    {
        // Pipeline two requests, then disappear before the responses
        // are written: the sends must fail with EPIPE, not raise a
        // process-killing SIGPIPE (nothing here installed SIG_IGN).
        TestClient c(server.port());
        c.send(kStudyReq);
        c.send(kStudyReq);
    } // fd closed here
    while (server.stats().served < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // The server is alive and still answering.
    TestClient c2(server.port());
    EXPECT_TRUE(isOk(
        parseResponse(c2.roundTrip(R"({"id":"b","type":"ping"})"))));
    server.stop();
}

TEST(Serve, ShutdownRequestStopsTheServer)
{
    serve::Server server(testOptions());
    server.start();
    const int port = server.port();
    {
        TestClient c(port);
        const json::Value r = parseResponse(
            c.roundTrip(R"({"id":"z","type":"shutdown"})"));
        EXPECT_TRUE(isOk(r));
        EXPECT_EQ(field(r, "type"), "shutdown");
    }
    server.wait(); // returns only once fully stopped
    EXPECT_THROW(serve::connectTcp("127.0.0.1", port),
                 std::runtime_error);
}

// ---- wire parser unit tests ----

TEST(Wire, CacheKeyCanonicalization)
{
    const auto parse = [](const std::string& line) {
        const serve::ParsedRequest p = serve::parseRequest(line);
        EXPECT_TRUE(p.ok) << p.detail;
        return p.req;
    };
    // Defaults collapse: explicit mesi/fullbv == unspecified.
    EXPECT_EQ(
        parse(kStudyReq).cacheKey(),
        parse(
            R"({"id":"q","type":"study","app":"fft","size":1024,"procs":[2],"protocol":"mesi","dirFormat":"fullbv"})")
            .cacheKey());
    // deadlineMs gates admission, not results: same key.
    EXPECT_EQ(
        parse(kStudyReq).cacheKey(),
        parse(
            R"({"id":"q","type":"study","app":"fft","size":1024,"procs":[2],"deadlineMs":9999})")
            .cacheKey());
    // Anything that changes the payload changes the key.
    EXPECT_NE(
        parse(kStudyReq).cacheKey(),
        parse(
            R"({"id":"q","type":"study","app":"fft","size":1024,"procs":[4]})")
            .cacheKey());
    EXPECT_NE(
        parse(kStudyReq).cacheKey(),
        parse(
            R"({"id":"q","type":"study","app":"fft","size":1024,"procs":[2],"protocol":"moesi"})")
            .cacheKey());
    EXPECT_NE(
        parse(kStudyReq).cacheKey(),
        parse(
            R"({"id":"q","type":"study","app":"fft","size":1024,"procs":[2],"obs":true})")
            .cacheKey());
}

TEST(Wire, ResponsesEscapeStrings)
{
    const std::string resp =
        serve::errorResponse("a\"b\x01", "bad-json", "line\nbreak");
    EXPECT_EQ(resp, "{\"id\":\"a\\\"b\\u0001\",\"ok\":false,\"error\":"
                    "\"bad-json\",\"detail\":\"line\\nbreak\"}\n");
    const json::ParseResult parsed =
        json::parse(resp.substr(0, resp.size() - 1));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.root.find("id")->str, "a\"b\x01");
    EXPECT_EQ(parsed.root.find("detail")->str, "line\nbreak");
}

} // namespace
