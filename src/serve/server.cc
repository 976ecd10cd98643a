#include "serve/server.hh"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "apps/registry.hh"
#include "core/metrics.hh"
#include "obs/trace.hh"

namespace ccnuma::serve {

namespace {

/// Baseline memo key: everything the uniprocessor run depends on.
std::string
seqKeyFor(const Request& req)
{
    const sim::MachineConfig cfg = req.machineFor(req.procs.front());
    return "seq|" + req.app + "|" + std::to_string(req.size) + "|" +
           cfg.protocol.name() + "|" + cfg.dirFormat.name();
}

/// Compact fixed-format rendering of one hot-line report.
std::string
hotLineText(const obs::SharingProfiler::LineReport& l)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "line=0x%" PRIx64 " invals=%" PRIu64
                  " dirtyMisses=%" PRIu64 " upgrades=%" PRIu64
                  " procs=%d",
                  static_cast<std::uint64_t>(l.line), l.invalidations,
                  l.dirtyMisses, l.upgrades, l.procsTouched);
    return buf;
}

/// Pause before retrying an accept() that failed for want of
/// descriptors or memory.
constexpr std::chrono::milliseconds kAcceptBackoff{50};

} // namespace

Server::Server(ServerOptions opt)
    : opt_(opt),
      runner_(core::StudyOptions{.jobs = opt.jobs}),
      cache_(opt.cacheEntries)
{
    if (opt_.workers < 1)
        opt_.workers = 1;
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (opt_.unixPath.empty()) {
        auto [fd, port] = listenTcp(opt_.host, opt_.port);
        listener_ = std::move(fd);
        port_ = port;
    } else {
        listener_ = listenUnix(opt_.unixPath);
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        started_ = true;
    }
    acceptThread_ = std::thread([this] { acceptLoop(); });
    workerThreads_.reserve(static_cast<std::size_t>(opt_.workers));
    for (int i = 0; i < opt_.workers; ++i)
        workerThreads_.emplace_back([this] { workerLoop(); });
}

void
Server::wait()
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        stopCv_.wait(lk, [&] {
            return shutdownRequested_ || stopping_ || stopped_;
        });
    }
    stop();
}

bool
Server::waitFor(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lk(mu_);
    return stopCv_.wait_for(lk, timeout, [&] {
        return shutdownRequested_ || stopping_ || stopped_;
    });
}

void
Server::stop()
{
    // One caller tears down; truly concurrent callers block here until
    // it finishes (join() on the same thread from two callers is UB),
    // then fall out through the stopped_ gate below.
    std::lock_guard<std::mutex> stopLk(stopMu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopped_)
            return;
        if (!started_) {
            stopped_ = true;
            return;
        }
        stopping_ = true;
    }
    stopCv_.notify_all();

    // 1. No new connections.
    listener_.shutdownBoth();
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.reset();

    // 2. Drain every admitted job — their responses still go out.
    {
        std::unique_lock<std::mutex> lk(mu_);
        idleCv_.wait(lk,
                     [&] { return queue_.empty() && activeJobs_ == 0; });
    }
    queueCv_.notify_all();
    for (std::thread& t : workerThreads_)
        t.join();
    workerThreads_.clear();

    // 3. Unblock readers and close the connections.
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const std::shared_ptr<Conn>& c : conns_)
            c->fd.shutdownBoth();
    }
    for (std::thread& t : connThreads_)
        t.join();
    connThreads_.clear();
    {
        std::lock_guard<std::mutex> lk(mu_);
        conns_.clear();
        stopped_ = true;
    }
    stopCv_.notify_all();
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

void
Server::acceptLoop()
{
    for (;;) {
        Fd fd = acceptOn(listener_);
        if (!fd.valid()) {
            // Either stop() shut the listener down, or the process is
            // short of descriptors or memory (EMFILE and kin), which a
            // client can cause by holding connections open. Only the
            // first ends the loop: the shortage passes, and a daemon
            // that stopped accepting would run on, deaf. Wait it out
            // without spinning; stop() cuts the wait short.
            std::unique_lock<std::mutex> lk(mu_);
            if (stopCv_.wait_for(lk, kAcceptBackoff,
                                 [&] { return stopping_; }))
                return;
            continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = std::move(fd);
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_) {
            conn->fd.shutdownBoth();
            continue;
        }
        ++stats_.accepted;
        conns_.push_back(conn);
        connThreads_.emplace_back(
            [this, conn] { connectionLoop(conn); });
    }
}

void
Server::send(const std::shared_ptr<Conn>& conn, const std::string& line)
{
    std::lock_guard<std::mutex> lk(conn->writeMu);
    writeAll(conn->fd.get(), line);
}

void
Server::connectionLoop(const std::shared_ptr<Conn>& conn)
{
    LineReader reader(conn->fd.get(), opt_.maxRequestBytes);
    std::string line;
    for (;;) {
        const ReadStatus st = reader.next(line);
        if (st == ReadStatus::Eof || st == ReadStatus::Error)
            return;
        if (st == ReadStatus::TooLong) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.rejectedTooLarge;
            }
            send(conn, errorResponse(
                           "", "too-large",
                           "request line exceeds " +
                               std::to_string(opt_.maxRequestBytes) +
                               " bytes"));
            continue;
        }
        ParsedRequest parsed;
        try {
            parsed = parseRequest(line);
        } catch (const std::exception& e) {
            // Parsing must never kill the daemon: an exception escaping
            // this thread would be std::terminate. Answer and move on.
            parsed.ok = false;
            parsed.error = "bad-request";
            parsed.detail = std::string("parse failure: ") + e.what();
        }
        if (!parsed.ok) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.badRequests;
            }
            send(conn, errorResponse(parsed.req.id, parsed.error,
                                     parsed.detail));
            continue;
        }
        Request& req = parsed.req;
        switch (req.type) {
        case Request::Type::Ping:
            send(conn, ackResponse(req.id, "pong"));
            break;
        case Request::Type::Shutdown:
            send(conn, ackResponse(req.id, "shutdown"));
            {
                std::lock_guard<std::mutex> lk(mu_);
                shutdownRequested_ = true;
            }
            stopCv_.notify_all();
            break;
        case Request::Type::Study:
        case Request::Type::Trace: {
            bool admitted = false;
            {
                std::lock_guard<std::mutex> lk(mu_);
                if (!stopping_ && queue_.size() < opt_.maxQueue) {
                    queue_.push_back(
                        Job{conn, std::move(req),
                            std::chrono::steady_clock::now()});
                    admitted = true;
                } else {
                    ++stats_.rejectedOverload;
                }
            }
            if (admitted) {
                queueCv_.notify_one();
            } else {
                send(conn,
                     errorResponse(req.id, "overloaded",
                                   "admission queue is full"));
            }
            break;
        }
        }
    }
}

void
Server::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            queueCv_.wait(
                lk, [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            ++activeJobs_;
        }
        handleJob(job);
        {
            std::lock_guard<std::mutex> lk(mu_);
            --activeJobs_;
        }
        idleCv_.notify_all();
    }
}

void
Server::handleJob(const Job& job)
{
    const Request& req = job.req;
    if (req.hasDeadline) {
        const auto waited =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - job.enqueued)
                .count();
        // >= so deadlineMs:0 means expire-immediately (documented in
        // wire.hh — a queue-latency probe, and what pins the expiry
        // path in tests without racing the worker pool).
        if (static_cast<std::uint64_t>(waited) >= req.deadlineMs) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.expired;
            }
            send(job.conn,
                 errorResponse(req.id, "expired",
                               "waited " + std::to_string(waited) +
                                   "ms past deadlineMs=" +
                                   std::to_string(req.deadlineMs)));
            return;
        }
    }

    try {
        // cached:true means no simulation ran on this call's behalf.
        bool cached = true;
        const std::string payload =
            cache_.getOrCompute(req.cacheKey(), [&] {
                cached = false;
                {
                    std::lock_guard<std::mutex> lk(mu_);
                    ++stats_.simsRun;
                }
                return computeResult(req);
            });
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.served;
            if (cached)
                ++stats_.cacheHits;
        }
        send(job.conn, resultResponse(req.id, cached, payload));
    } catch (const std::exception& e) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.simFailed;
        }
        send(job.conn, errorResponse(req.id, "sim-failed", e.what()));
    }
}

std::string
Server::computeResult(const Request& req)
{
    core::StudyPlan plan;
    std::vector<int> procsList;
    if (req.type == Request::Type::Study) {
        procsList = req.procs;
        const std::string seqKey = seqKeyFor(req);
        for (const int p : req.procs) {
            const std::string label =
                req.app + " P=" + std::to_string(p);
            core::AppFactory factory = [app = req.app,
                                        size = req.size] {
                return apps::makeApp(app, size);
            };
            if (req.baseline)
                plan.add(label, req.machineFor(p), std::move(factory),
                         seqKey);
            else
                plan.addParallelOnly(label, req.machineFor(p),
                                     std::move(factory));
        }
    } else {
        procsList.push_back(req.trace.procs);
        const auto tr = std::make_shared<const apps::Trace>(req.trace);
        plan.addParallelOnly(
            "trace P=" + std::to_string(req.trace.procs),
            req.machineFor(req.trace.procs),
            [tr] { return std::make_unique<apps::TraceReplayApp>(*tr); });
    }

    const core::StudyResult res =
        runner_.submit(std::move(plan)).get();
    for (const core::RunOutcome& r : res.runs)
        if (!r.ok)
            throw std::runtime_error(r.name + ": " + r.error);

    // Canonical payload: everything below is deterministic in the
    // request (cycle counts and ratios only — no wall-clock, no host
    // identity), which is what makes responses byte-stable and
    // cacheable.
    core::MetricsSink sink = core::MetricsSink::inMemory();
    sink.setMachine(req.machineFor(procsList.front()));
    for (const core::RunOutcome& r : res.runs) {
        sink.add(r.name, r.m.par);
        sink.addCount(r.name, "nprocs",
                      static_cast<std::uint64_t>(r.nprocs));
        if (r.m.seqTime) {
            sink.addCount(r.name, "seqCycles",
                          static_cast<std::uint64_t>(r.m.seqTime));
            sink.addScalar(r.name, "speedup", r.m.speedup());
            sink.addScalar(r.name, "efficiency", r.m.efficiency());
        }
        if (req.obs && r.m.par.trace) {
            const auto hot = r.m.par.trace->sharing().hotLines(3);
            for (std::size_t i = 0; i < hot.size(); ++i)
                sink.addText(r.name, "hot" + std::to_string(i),
                             hotLineText(hot[i]));
        }
    }
    return sink.str();
}

} // namespace ccnuma::serve
