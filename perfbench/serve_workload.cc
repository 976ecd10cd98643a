/**
 * @file
 * serve-mixed: an in-process serve::Server (two workers, StudyRunner
 * jobs=2) driven over loopback by one generator thread on two
 * connections. It is the only workload in which the wire, the sockets,
 * the result cache and admission block the response.
 *
 * The request mix is about 70% repeats of a small hot set of study
 * requests (cache hits, warmed before timing), 20% cold study requests
 * with unique keys (a new processor list, protocol or directory format
 * at the golden quick sizes, P <= 32; some share a cached baseline and
 * some need a new one) and 10% `ccnuma-trace v1` uploads recorded from
 * small app runs. The cold stream outgrows the 128-entry result cache,
 * so eviction runs.
 *
 * One server serves kRounds rounds of three slices:
 *  - open loop at kLowRps, then at kHighRps: seeded Poisson arrivals,
 *    each request timed from when it was due, the generator's lateness
 *    recorded, and the rate marked over capacity when the number of
 *    requests in flight keeps growing;
 *  - a closed-loop batch with a bounded window per connection, as fast
 *    as the server answers (pass_s, p95_ms, serve_max_rps).
 *
 * The seed sets arrival times and which slots carry which kind of
 * request. Which requests each slice sends is fixed, so every seed does
 * the same simulation work.
 */

#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "apps/registry.hh"
#include "apps/trace.hh"
#include "check/golden.hh"
#include "serve/net.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

double
p50(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

double
p95(const std::vector<double>& v)
{
    return quantile(v, 0.95);
}

constexpr int kWorkers = 2;
constexpr int kJobs = 2;
constexpr int kConns = 2;
constexpr int kSetupSamples = 5;

/// Offered rates: about 1/4 and 3/4 of the highest rate whose open-loop
/// p95 stayed under kLatencyLimitMs when the benchmark was defined
/// (4-vCPU x86-64 host, g++ 12 -O2), then frozen so later changes are
/// measured at the same load.
constexpr double kLowRps = 20;
constexpr double kHighRps = 60;
/// p95 limit a rate must meet; a failed request counts as missing it.
constexpr double kLatencyLimitMs = 60;

/// Shares of the run's --seconds the two open-loop phases take; the
/// request mix is 70% hot, 20% cold, 10% trace.
constexpr double kLowShare = 0.35, kHighShare = 0.15;
/// The run is kRounds rounds of a low slice, a high slice and
/// kBatchesPerRound closed-loop batches (pass_s is the batches' median)
/// of a fixed mix, with at most kWindow requests outstanding per
/// connection. The batches carry the gated metrics, so they get most of
/// the time the open-loop slices (at least 200 requests per rate) leave.
constexpr int kRounds = 12;
constexpr int kBatchesPerRound = 4;
constexpr int kBatchHot = 84, kBatchCold = 24, kBatchTrace = 12;
constexpr int kWindow = 4;
constexpr double kDrainTimeoutS = 5;
constexpr std::uint64_t kDeadlineMs = 10000;

enum class Kind { Hot, Cold, Trace };

struct Req {
    Kind kind = Kind::Hot;
    std::string body; ///< Request fields after "id".
    std::string key;  ///< serve::Request::cacheKey().
};

/// Simulated loads + stores of every run in a result payload.
std::uint64_t
payloadMemOps(const std::string& payload)
{
    const check::json::ParseResult pr = check::json::parse(payload);
    const check::json::Value* runs = pr.ok ? pr.root.find("runs") : nullptr;
    std::uint64_t ops = 0;
    if (runs)
        for (const check::json::Value& r : runs->arr)
            if (const check::json::Value* t = r.find("totals"))
                for (const char* k : {"loads", "stores"})
                    if (const check::json::Value* v = t->find(k))
                        ops += v->asU64();
    return ops;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + s.size() / 8);
    for (const char c : s) {
        if (c == '\n')
            out += "\\n";
        else if (c == '"' || c == '\\')
            out += std::string("\\") + c;
        else if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out;
}

std::string
requestLine(const std::string& id, const Req& r)
{
    return "{\"id\":\"" + id + "\"," + r.body + "}\n";
}

std::string
studyBody(const std::string& app, const std::vector<int>& procs,
          const std::string& protocol, const std::string& dir)
{
    std::string b = "\"type\":\"study\",\"app\":\"" + app +
                    "\",\"size\":" +
                    std::to_string(check::goldenSize(app)) + ",\"procs\":[";
    for (std::size_t i = 0; i < procs.size(); ++i)
        b += (i ? "," : "") + std::to_string(procs[i]);
    b += "]";
    if (!protocol.empty())
        b += ",\"protocol\":\"" + protocol + "\",\"dirFormat\":\"" + dir +
             "\"";
    return b + ",\"deadlineMs\":" + std::to_string(kDeadlineMs);
}

/// Fill in `key` through the public wire parser.
void
keyOf(Req& r)
{
    const serve::ParsedRequest p = serve::parseRequest(requestLine("k", r));
    if (!p.ok)
        throw std::runtime_error("benchmark request rejected: " + p.detail);
    r.key = p.req.cacheKey();
}

const char* const kMachines[][2] = {
    {"mesi", "fullbv"},  {"mesi", "coarse:4"},  {"mesi", "ptr:2"},
    {"moesi", "fullbv"}, {"moesi", "coarse:4"}, {"moesi", "ptr:2"},
    {"dragon", "fullbv"}, {"dragon", "coarse:4"}, {"dragon", "ptr:2"},
};

struct Pools {
    std::vector<Req> hot, cold, trace;
};

/**
 * The fixed request pools. Cold keys enumerate app x machine x
 * processor list in a fixed interleaved order, so consecutive cold
 * requests mostly differ in app and any slice has a similar cost mix.
 */
Pools
buildPools()
{
    Pools p;
    const char* const hotApps[] = {"fft", "radix", "ocean",
                                   "water-nsq", "volrend", "shearwarp"};
    for (const char* app : hotApps) {
        Req r{Kind::Hot, studyBody(app, {4, 16}, "", ""), ""};
        keyOf(r);
        p.hot.push_back(std::move(r));
    }

    const char* const coldApps[] = {"fft", "radix", "ocean", "water-nsq",
                                    "volrend", "shearwarp", "infer",
                                    "water-spatial"};
    // Up to 32 processors: P=64 lists of the heavier apps cost 20-90 ms
    // each, and their queueing tail would swamp the latency figures.
    const std::vector<std::vector<int>> procLists = {
        {8},       {16},      {32},       {4, 32},     {8, 16},
        {2, 16},   {2, 32},   {8, 32},    {4, 8},      {16, 32},
        {2, 4},    {2, 8},    {2},        {4},         {2, 4, 8},
        {4, 8, 16}, {8, 16, 32}, {2, 8, 32}, {4, 8, 32}, {2, 16, 32}};
    for (const auto& procs : procLists)
        for (const auto& m : kMachines)
            for (const char* app : coldApps) {
                Req r{Kind::Cold, studyBody(app, procs, m[0], m[1]), ""};
                keyOf(r);
                p.cold.push_back(std::move(r));
            }
    // A fixed order (not the run's seed), so that each phase's slice
    // of the pool is a similar cost mix and the same on every run.
    std::mt19937_64 fixed(20260101);
    std::shuffle(p.cold.begin(), p.cold.end(), fixed);

    const struct {
        const char* app;
        std::uint64_t size;
        int procs;
    } traced[] = {{"fft", 1024, 4},
                  {"radix", 4096, 8},
                  {"ocean", 34, 4},
                  {"water-nsq", 64, 8}};
    for (const auto& [app, size, procs] : traced) {
        apps::AppPtr a = apps::makeApp(app, size);
        const apps::RecordedTrace rt = apps::recordTrace(
            sim::MachineConfig::origin2000(procs), *a);
        const std::string text = jsonEscape(rt.trace.serialize());
        for (const auto& m : kMachines) {
            Req r{Kind::Trace,
                  "\"type\":\"trace\",\"trace\":\"" + text +
                      "\",\"protocol\":\"" + m[0] + "\",\"dirFormat\":\"" +
                      m[1] + "\"",
                  ""};
            keyOf(r);
            p.trace.push_back(std::move(r));
        }
    }
    return p;
}

/** One request as sent in this run. */
struct Sample {
    explicit Sample(const Req* r, int c = 0) : req(r), conn(c) {}

    const Req* req;
    int conn;
    double due = 0, sent = 0, done = 0;
    bool answered = false, ok = false, cached = false;
    std::string error;
};

/// The server every phase runs against (the result cache keeps its
/// default 128 entries unless `cacheEntries` is given).
serve::ServerOptions
serverOptions(std::size_t cacheEntries = 0)
{
    serve::ServerOptions o;
    o.workers = kWorkers;
    o.jobs = kJobs;
    if (cacheEntries)
        o.cacheEntries = cacheEntries;
    return o;
}

/** What one phase measured. */
struct PhaseResult {
    /// From due time to response, ms; a failed or unanswered request
    /// counts as twice the latency limit.
    std::vector<double> latMs;
    std::vector<double> lateMs; ///< From due time to send, ms.
    double wall = 0;
    bool growing = false;
    int failed = 0;
};

/**
 * Two client connections with a reader thread each. Requests are named
 * by their index into `samples`, fixed before anything is sent.
 */
class Client
{
  public:
    Client(int port, std::vector<Sample>& samples, Pins& pins)
        : samples_(samples), pins_(pins)
    {
        for (int c = 0; c < kConns; ++c)
            fds_.push_back(serve::connectTcp("127.0.0.1", port));
        for (int c = 0; c < kConns; ++c)
            readers_.emplace_back([this, c] { readLoop(c); });
    }
    ~Client()
    {
        for (serve::Fd& fd : fds_)
            fd.shutdownBoth();
        for (std::thread& t : readers_)
            t.join();
    }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    void send(std::size_t i)
    {
        Sample& s = samples_[i];
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++outstanding_[s.conn];
            ++sentCount_;
        }
        s.sent = nowS();
        if (!serve::writeAll(fds_[static_cast<std::size_t>(s.conn)].get(),
                             requestLine("r" + std::to_string(i), *s.req)))
            throw std::runtime_error("write to server failed");
    }

    /// Requests sent and not yet answered.
    int inFlight()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return sentCount_ - doneCount_;
    }

    /// Block until connection `c` has fewer than `window` outstanding.
    void waitWindow(int c, int window)
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return outstanding_[c] < window; });
    }

    /// Wait until every sent request is answered or `timeoutS` passes.
    bool drain(double timeoutS)
    {
        std::unique_lock<std::mutex> lk(mu_);
        return cv_.wait_for(
            lk, std::chrono::duration<double>(timeoutS),
            [&] { return doneCount_ == sentCount_; });
    }

    /// Latencies of requests [b, e), read under the readers' lock (a
    /// late answer may still arrive after a timed-out drain).
    PhaseResult collect(std::size_t b, std::size_t e)
    {
        std::lock_guard<std::mutex> lk(mu_);
        PhaseResult r;
        for (std::size_t i = b; i < e; ++i) {
            const Sample& s = samples_[i];
            const bool good = s.answered && s.ok;
            if (!good)
                ++r.failed;
            r.latMs.push_back(good ? (s.done - s.due) * 1e3
                                   : 2 * kLatencyLimitMs);
            r.lateMs.push_back((s.sent - s.due) * 1e3);
            r.wall = std::max(r.wall, s.done);
        }
        return r;
    }

  private:
    void readLoop(int c)
    {
        serve::LineReader reader(fds_[static_cast<std::size_t>(c)].get(),
                                 64u << 20);
        std::string line;
        while (reader.next(line) == serve::ReadStatus::Line)
            onResponse(line);
    }

    void onResponse(const std::string& line)
    {
        const double t = nowS();
        const std::string idTag = "{\"id\":\"r";
        if (line.compare(0, idTag.size(), idTag) != 0)
            return;
        const std::size_t i = std::stoul(line.substr(idTag.size()));
        if (i >= samples_.size())
            return;
        Sample& s = samples_[i];
        bool ok = line.find("\"ok\":true", idTag.size()) != std::string::npos;
        std::string error;
        const std::string resTag = "\"result\":";
        const std::size_t rp = line.find(resTag);
        if (ok && rp != std::string::npos) {
            const std::string payload =
                line.substr(rp + resTag.size(),
                            line.size() - rp - resTag.size() - 1);
            ok = pins_.check("serve-mixed", s.req->key,
                             {{"payload", fnv1aHex(payload)}});
            if (pins_.recording())
                pins_.check("serve-mixed-ops", s.req->key,
                            {{"memOps",
                              std::to_string(payloadMemOps(payload))}});
            if (!ok)
                error = "payload mismatch";
        } else {
            const std::size_t ep = line.find("\"error\":\"");
            error = ep == std::string::npos
                        ? "malformed response"
                        : line.substr(ep + 9, line.find('"', ep + 9) - ep - 9);
            ok = false;
        }
        std::lock_guard<std::mutex> lk(mu_);
        s.done = t;
        s.answered = true;
        s.ok = ok;
        s.cached = line.find("\"cached\":true") != std::string::npos;
        s.error = std::move(error);
        --outstanding_[s.conn];
        ++doneCount_;
        cv_.notify_all();
    }

    std::vector<Sample>& samples_;
    Pins& pins_;
    std::vector<serve::Fd> fds_;
    std::mutex mu_;
    std::condition_variable cv_;
    int outstanding_[kConns] = {};
    int sentCount_ = 0, doneCount_ = 0;
    std::vector<std::thread> readers_;
};

void
sleepUntil(double t)
{
    const double d = t - nowS();
    if (d > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

/// Open loop: send [b, e) at their due times regardless of answers.
PhaseResult
runOpenLoop(Client& client, std::vector<Sample>& samples, std::size_t b,
            std::size_t e, double rate, std::mt19937_64& rng)
{
    std::exponential_distribution<double> gap(rate);
    double due = nowS() + 0.01;
    for (std::size_t i = b; i < e; ++i) {
        samples[i].due = due;
        due += gap(rng);
    }
    std::vector<int> inflight;
    const double t0 = samples[b].due;
    for (std::size_t i = b; i < e; ++i) {
        sleepUntil(samples[i].due);
        inflight.push_back(client.inFlight());
        client.send(i);
    }
    client.drain(kDrainTimeoutS);
    PhaseResult r = client.collect(b, e);
    r.wall = nowS() - t0;
    // Over capacity: the backlog in the last quarter of the sends is
    // well above the first quarter's.
    const std::size_t q = inflight.size() / 4;
    double first = 0, last = 0;
    for (std::size_t i = 0; i < q; ++i) {
        first += inflight[i];
        last += inflight[inflight.size() - 1 - i];
    }
    r.growing = q > 0 && last / q > 2 * (first / q) + 4;
    return r;
}

/// Closed loop: keep at most kWindow requests outstanding per
/// connection until [b, e) is answered.
PhaseResult
runClosedLoop(Client& client, std::vector<Sample>& samples, std::size_t b,
              std::size_t e)
{
    const double t0 = nowS();
    for (std::size_t i = b; i < e; ++i) {
        client.waitWindow(samples[i].conn, kWindow);
        samples[i].due = nowS();
        client.send(i);
    }
    client.drain(kDrainTimeoutS);
    PhaseResult r = client.collect(b, e);
    r.wall = std::max(r.wall, t0) - t0; // last answer minus first send
    return r;
}

/**
 * Set-up time of a fresh server: start, first pong, and the hot set
 * computed (what the timed phases find warm). The median over
 * kSetupSamples servers; the start-to-pong part alone is a fraction of
 * a millisecond of thread wake-ups and too noisy to compare.
 */
double
measureSetup(const std::vector<Req>& hot)
{
    std::vector<double> v;
    for (int k = 0; k < kSetupSamples; ++k) {
        const double t0 = nowS();
        serve::Server server(serverOptions());
        server.start();
        serve::Fd fd = serve::connectTcp("127.0.0.1", server.port());
        serve::LineReader reader(fd.get(), 64u << 20);
        std::string line;
        serve::writeAll(fd.get(), "{\"id\":\"p\",\"type\":\"ping\"}\n");
        if (reader.next(line) != serve::ReadStatus::Line ||
            line.find("pong") == std::string::npos)
            throw std::runtime_error("no pong from a fresh server");
        for (const Req& r : hot)
            serve::writeAll(fd.get(), requestLine("h", r));
        for (std::size_t i = 0; i < hot.size(); ++i)
            if (reader.next(line) != serve::ReadStatus::Line ||
                line.find("\"ok\":true") == std::string::npos)
                throw std::runtime_error("hot request failed in set-up");
        v.push_back(nowS() - t0);
        fd.reset();
        server.stop();
    }
    return median(v);
}

/// Append `n` requests of `pool[first..]` to `out`, wrapping within
/// the pool's first `size` entries (all of them when 0).
void
take(std::vector<const Req*>& out, const std::vector<Req>& pool,
     std::size_t first, int n, std::size_t begin = 0, std::size_t size = 0)
{
    if (!size)
        size = pool.size() - begin;
    for (int i = 0; i < n; ++i)
        out.push_back(
            &pool[begin + (first + static_cast<std::size_t>(i)) % size]);
}

} // namespace

Outcome
runServeMixed(const Options& opt, Pins& pins, Spans& spans)
{
    // Fix glibc's mmap threshold at its initial value. Left dynamic, it
    // rises when some thread first frees a large block, and which
    // thread does so first is timing-dependent: with several server
    // threads allocating machines, runs of identical input then land in
    // one of two allocator states and their timings are bimodal.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    Outcome out;
    const Pools pools = buildPools();

    if (pins.recording()) {
        // Pin every key any phase can send, computed one at a time.
        serve::Server server(serverOptions(1024));
        server.start();
        std::vector<Sample> samples;
        for (const auto* pool : {&pools.hot, &pools.cold, &pools.trace})
            for (const Req& r : *pool)
                samples.push_back(Sample{&r});
        Client client(server.port(), samples, pins);
        for (std::size_t i = 0; i < samples.size(); ++i) {
            client.send(i);
            client.drain(60);
        }
        std::map<Kind, std::vector<double>> ms;
        std::map<std::string, std::vector<double>> byApp;
        for (const Sample& s : samples) {
            ++out.attempted;
            out.failed += !(s.answered && s.ok);
            ms[s.req->kind].push_back((s.done - s.sent) * 1e3);
        }
        std::fprintf(stderr,
                     "serve-mixed compute p50 ms: hot %.2f, cold %.2f, "
                     "trace %.2f\n",
                     p50(ms[Kind::Hot]), p50(ms[Kind::Cold]),
                     p50(ms[Kind::Trace]));
        return out;
    }

    const double setupS = measureSetup(pools.hot);
    spans.enable(opt.trace);

    // The run's request sequence: warm-up, low, high, closed batches.
    // Cold keys are sliced so that no key repeats within the run.
    std::mt19937_64 rng(opt.seed);
    std::vector<Sample> samples;
    enum class Phase { Warm, Low, High, Batch };
    struct Span {
        Phase kind;
        std::size_t b, e;
    };
    std::vector<Span> phases;
    // The open phases cycle through all but the last kBatchTrace trace
    // keys; every batch uploads exactly those last ones, so the first
    // batch computes them and the rest hit, whatever the open phases'
    // order left in the cache.
    const std::size_t openTraces = pools.trace.size() - kBatchTrace;
    std::size_t coldNext = 0, traceNext = 0;
    const auto addPhase = [&](Phase kind, int hot, int cold, int trace,
                              std::mt19937_64* order) {
        const bool batch = kind == Phase::Batch;
        std::vector<const Req*> hots, colds, traces;
        take(hots, pools.hot, 0, hot);
        take(colds, pools.cold, coldNext, cold);
        if (batch)
            take(traces, pools.trace, 0, trace, openTraces);
        else
            take(traces, pools.trace, traceNext, trace, 0, openTraces);
        coldNext += static_cast<std::size_t>(cold);
        traceNext += batch ? 0 : static_cast<std::size_t>(trace);
        // `order` decides which slots are hot, cold or trace; each kind
        // keeps its pool order, so the same requests find their
        // baseline missing (or their trace uncached) on every seed.
        std::vector<Kind> slots;
        slots.insert(slots.end(), hots.size(), Kind::Hot);
        slots.insert(slots.end(), colds.size(), Kind::Cold);
        slots.insert(slots.end(), traces.size(), Kind::Trace);
        if (order)
            std::shuffle(slots.begin(), slots.end(), *order);
        std::vector<const Req*> reqs;
        std::size_t next[3] = {0, 0, 0};
        for (const Kind k : slots) {
            const auto& from = k == Kind::Hot    ? hots
                               : k == Kind::Cold ? colds
                                                 : traces;
            reqs.push_back(from[next[static_cast<int>(k)]++]);
        }
        const std::size_t b = samples.size();
        for (std::size_t i = 0; i < reqs.size(); ++i)
            samples.push_back(
                Sample{reqs[i], static_cast<int>(i % kConns)});
        phases.push_back({kind, b, samples.size()});
    };
    const auto addOpenPhase = [&](Phase kind, double rate, double share) {
        const int n = static_cast<int>(rate * share * opt.seconds /
                                           kRounds +
                                       0.5);
        const int hot = (n * 7 + 5) / 10, cold = (n * 2 + 5) / 10;
        addPhase(kind, hot, cold, n - hot - cold, &rng);
    };
    addPhase(Phase::Warm, static_cast<int>(pools.hot.size()), 0, 0,
             nullptr);
    // Rounds of low, high and batch slices spread every measurement
    // over the whole run, so a slow spell of the host touches all of
    // them a little rather than one of them entirely. The batches go
    // in a fixed order: the closed loop measures capacity, which the
    // seed's ordering would only add noise to.
    std::mt19937_64 fixedOrder(7);
    for (int r = 0; r < kRounds; ++r) {
        addOpenPhase(Phase::Low, kLowRps, kLowShare);
        addOpenPhase(Phase::High, kHighRps, kHighShare);
        for (int b = 0; b < kBatchesPerRound; ++b)
            addPhase(Phase::Batch, kBatchHot, kBatchCold, kBatchTrace,
                     &fixedOrder);
    }
    if (coldNext > pools.cold.size())
        throw std::invalid_argument(
            "--seconds too long: the run would repeat cold keys");
    LayerReport& lr = out.layers;
    if (opt.trace) {
        // Layer probes on this run's own inputs, taken before any
        // timing: the wire parser on every request line of the high
        // phase, and the trace parser on its uploads.
        double parseS = 0, traceS = 0;
        std::size_t lines = 0;
        for (const Span& ph : phases)
        for (std::size_t i = ph.b; i < ph.e && ph.kind == Phase::High; ++i) {
            ++lines;
            const std::string line = requestLine("r", *samples[i].req);
            const double t0 = nowS();
            const serve::ParsedRequest p = serve::parseRequest(line);
            parseS += nowS() - t0;
            if (samples[i].req->kind == Kind::Trace) {
                const std::string text = p.req.trace.serialize();
                const double t1 = nowS();
                const apps::TraceParseResult tp = apps::parseTrace(text);
                traceS += nowS() - t1;
                if (!tp.ok)
                    throw std::runtime_error("trace does not parse");
            }
        }
        lr.set("serve.parse_us",
               parseS * 1e6 / static_cast<double>(lines));
        lr.set("apps.trace_parse_s", traceS);
    }

    serve::Server server(serverOptions());
    server.start();
    std::vector<PhaseResult> res;
    {
        Client client(server.port(), samples, pins);
        for (const Span& ph : phases)
            res.push_back(
                ph.kind == Phase::Low
                    ? runOpenLoop(client, samples, ph.b, ph.e, kLowRps, rng)
                : ph.kind == Phase::High
                    ? runOpenLoop(client, samples, ph.b, ph.e, kHighRps,
                                  rng)
                    : runClosedLoop(client, samples, ph.b, ph.e));
    }
    server.stop();
    const serve::ServerStats st = server.stats();

    // Pool the slices of each rate; the batch time is their median.
    PhaseResult low, high;
    std::vector<double> batchS;
    for (std::size_t k = 0; k < res.size(); ++k) {
        const PhaseResult& r = res[k];
        out.attempted += r.latMs.size();
        out.failed += static_cast<std::uint64_t>(r.failed);
        if (phases[k].kind == Phase::Batch)
            batchS.push_back(r.wall);
        if (phases[k].kind != Phase::Low && phases[k].kind != Phase::High)
            continue;
        PhaseResult& to = phases[k].kind == Phase::Low ? low : high;
        to.latMs.insert(to.latMs.end(), r.latMs.begin(), r.latMs.end());
        to.lateMs.insert(to.lateMs.end(), r.lateMs.begin(), r.lateMs.end());
        to.failed += r.failed;
        to.growing = to.growing || r.growing;
    }
    const double passS = median(batchS);
    // Closed-loop tail latency: the 95th percentile over every batch
    // request, so that more than ten requests lie beyond it.
    std::vector<double> batchLat;
    for (std::size_t k = 0; k < res.size(); ++k)
        if (phases[k].kind == Phase::Batch)
            batchLat.insert(batchLat.end(), res[k].latMs.begin(),
                            res[k].latMs.end());
    const double maxRps =
        static_cast<double>(kBatchHot + kBatchCold + kBatchTrace) / passS;

    // Latencies at the high rate by kind (hits, computed studies,
    // trace uploads), from when each request was due.
    std::vector<double> hit, miss, trace;
    for (std::size_t k = 0; k < phases.size(); ++k)
        for (std::size_t i = phases[k].b;
             i < phases[k].e && phases[k].kind == Phase::High; ++i) {
            const Sample& s = samples[i];
            const double ms = res[k].latMs[i - phases[k].b];
            (s.req->kind == Kind::Trace ? trace : s.cached ? hit : miss)
                .push_back(ms);
        }

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "serve_p50_ms.low=%.3f serve_p95_ms.low=%.3f "
                  "serve_p50_ms.high=%.3f serve_p95_ms.high=%.3f "
                  "serve_max_rps=%.2f (closed loop, window %d/conn)",
                  p50(low.latMs), p95(low.latMs), p50(high.latMs),
                  p95(high.latMs), maxRps, kWindow);
    out.notes.push_back(buf);
    for (const auto& [name, r, rate] :
         {std::tuple{"low", &low, kLowRps},
          std::tuple{"high", &high, kHighRps}}) {
        std::snprintf(buf, sizeof(buf),
                      "%s %.0f req/s: %zu requests, %d failed, "
                      "gen_late_p95=%.3f ms, backlog %s, p95 %s the "
                      "%.0f ms limit",
                      name, rate, r->latMs.size(), r->failed,
                      p95(r->lateMs), r->growing ? "GROWING" : "steady",
                      p95(r->latMs) <= kLatencyLimitMs ? "meets" : "MISSES",
                      kLatencyLimitMs);
        out.notes.push_back(buf);
        if (r->growing)
            ++out.failed; // an over-capacity rate fails the run
    }
    std::snprintf(buf, sizeof(buf),
                  "high p50/p95 ms by kind: hit %.3f/%.3f computed "
                  "%.3f/%.3f trace %.3f/%.3f",
                  p50(hit), p95(hit), p50(miss), p95(miss), p50(trace),
                  p95(trace));
    out.notes.push_back(buf);
    for (const Sample& s : samples)
        if (!(s.answered && s.ok)) {
            out.notes.push_back("first failed request: " + s.req->key +
                                ": " +
                                (s.answered ? s.error : "no response"));
            break;
        }

    if (!opt.trace) {
        // Simulated ops the server computed (not served from its
        // cache) during the batches, per host microsecond of batches.
        double ops = 0, wall = 0;
        for (std::size_t k = 0; k < phases.size(); ++k) {
            if (phases[k].kind != Phase::Batch)
                continue;
            wall += res[k].wall;
            for (std::size_t i = phases[k].b; i < phases[k].e; ++i)
                if (!samples[i].cached)
                    ops += std::stod(pins.pinned(
                        "serve-mixed-ops", samples[i].req->key, "memOps"));
        }
        out.add("setup_s", setupS, "s");
        out.add("pass_s", passS, "s");
        out.add("sim_mops_per_s", ops / (wall * 1e6), "1/us");
        out.add("peak_rss_mb", peakRssMb(), "MB");
        out.add("p95_ms", p95(batchLat), "ms");
        return out;
    }

    // Spans are built from timestamps both modes take, after the
    // measurement, so tracing adds nothing to the timed phases.
    const char* const phaseNames[] = {"warm", "low", "high", "batch"};
    for (std::size_t k = 0; k < phases.size(); ++k) {
        const std::string pname =
            phaseNames[static_cast<int>(phases[k].kind)] +
            std::to_string(k);
        const double start = samples[phases[k].b].due;
        const int ps =
            spans.add("serve.phase", start, start + res[k].wall, -1, pname);
        for (std::size_t i = phases[k].b; i < phases[k].e; ++i) {
            const Sample& s = samples[i];
            const std::string id = pname + "/r" + std::to_string(i);
            const int r = spans.add("serve.request", s.due, s.done, ps, id);
            spans.add("serve.gen_late", s.due, s.sent, r, id);
        }
    }
    lr.set("serve.hit_p50_ms", p50(hit));
    lr.set("serve.miss_p50_ms", p50(miss));
    lr.set("serve.trace_p50_ms", p50(trace));
    lr.set("serve.cache_hit_ratio", static_cast<double>(st.cacheHits) /
                                        static_cast<double>(st.served));
    lr.set("serve.served", static_cast<double>(st.served));
    lr.set("serve.sims_run", static_cast<double>(st.simsRun));
    lr.set("serve.rejected",
           static_cast<double>(st.rejectedOverload + st.badRequests +
                               st.rejectedTooLarge));
    lr.set("serve.expired", static_cast<double>(st.expired));
    lr.set("serve.gen_late_ms", p95(high.lateMs));
    lr.set("serve_p50_ms.low", p50(low.latMs));
    lr.set("serve_p95_ms.low", p95(low.latMs));
    lr.set("serve_p50_ms.high", p50(high.latMs));
    lr.set("serve_p95_ms.high", p95(high.latMs));
    lr.set("serve_max_rps", maxRps);
    lr.set("trace.spans", static_cast<double>(spans.size()));
    return out;
}

} // namespace perfbench
