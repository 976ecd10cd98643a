/**
 * @file
 * ccnuma_serve: simulation-as-a-service over a TCP or Unix socket.
 *
 * One Server owns one listener, a thread per live connection, a
 * bounded admission queue, a small worker pool, a single-flight LRU
 * result cache (apps::SingleFlight), and one shared core::StudyRunner. A
 * connection thread reads NDJSON request lines (serve/wire.hh),
 * answers ping/shutdown and every rejection inline, and enqueues
 * study/trace work; workers drain the queue through the cache and the
 * StudyRunner::submit() funnel, so concurrent clients share machine
 * capacity, uniprocessor baselines and finished results instead of
 * trampling the host.
 *
 * Everything a worker computes is deterministic in the request alone
 * (serial-engine-identical simulation, compact canonical JSON, no
 * wall-clock in the payload), so identical requests produce
 * byte-identical responses whether computed or cached — the soak test
 * hammers this with concurrent mixed clients under TSan.
 *
 * Admission control: a full queue rejects with "overloaded" instead of
 * queueing unboundedly; a request carrying deadlineMs that waits
 * longer than that before a worker picks it up is dropped with
 * "expired" (the sunk-cost guillotine: never start work nobody is
 * waiting for). Both paths answer on the wire; the connection lives.
 *
 * Shutdown is graceful: stop() closes the listener, lets workers
 * drain every admitted job (responses included), then unblocks and
 * joins the connection threads. A client "shutdown" request triggers
 * the same sequence via wait().
 */

#ifndef CCNUMA_SERVE_SERVER_HH
#define CCNUMA_SERVE_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/single_flight.hh"
#include "core/study_runner.hh"
#include "serve/net.hh"
#include "serve/wire.hh"

namespace ccnuma::serve {

/** Server knobs (all have serviceable defaults). */
struct ServerOptions {
    std::string host = "127.0.0.1";
    int port = 0;          ///< 0 = bind an ephemeral port.
    std::string unixPath;  ///< Non-empty: Unix socket instead of TCP.
    int workers = 2;       ///< Queue-draining worker threads.
    int jobs = 0;          ///< StudyRunner thread budget (0 = host).
    std::size_t maxQueue = 64;        ///< Admission queue bound.
    std::size_t maxRequestBytes = 4u << 20; ///< Per-line size limit.
    std::size_t cacheEntries = 128;   ///< Result cache capacity.
};

/** Monotonic counters (see stats()). */
struct ServerStats {
    std::uint64_t accepted = 0;     ///< Connections accepted.
    std::uint64_t served = 0;       ///< ok:true study/trace responses.
    std::uint64_t cacheHits = 0;    ///< ...of which cached:true.
    std::uint64_t simsRun = 0;      ///< Cache-miss computations started.
    std::uint64_t badRequests = 0;  ///< bad-json + bad-request.
    std::uint64_t rejectedTooLarge = 0;
    std::uint64_t rejectedOverload = 0;
    std::uint64_t expired = 0;
    std::uint64_t simFailed = 0;
};

class Server
{
  public:
    explicit Server(ServerOptions opt);
    /// Equivalent to stop().
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen, and start the accept/worker threads.
    /// @throws std::runtime_error when the socket cannot be bound.
    void start();

    /// The bound TCP port (resolved when ServerOptions::port was 0).
    int port() const { return port_; }

    /// Block until a client "shutdown" request (or a prior stop()),
    /// then perform the graceful stop. Returns when fully stopped.
    void wait();

    /// Bounded wait()-probe: true when shutdown has been requested (or
    /// the server already stopped) — the caller should then stop().
    /// Lets a daemon alternate between waiting and polling a signal
    /// flag (condition variables cannot be notified from a handler).
    bool waitFor(std::chrono::milliseconds timeout);

    /// Graceful stop: refuse new connections, drain admitted work,
    /// answer it, then close connections and join every thread.
    /// Idempotent and safe to call from any thread except a server
    /// worker/connection thread; concurrent callers block until the
    /// first teardown completes.
    void stop();

    ServerStats stats() const;

  private:
    struct Conn {
        Fd fd;
        std::mutex writeMu; ///< Responses interleave whole lines only.
    };
    struct Job {
        std::shared_ptr<Conn> conn;
        Request req;
        std::chrono::steady_clock::time_point enqueued;
    };

    void acceptLoop();
    void connectionLoop(const std::shared_ptr<Conn>& conn);
    void workerLoop();
    void handleJob(const Job& job);
    /// Run the simulations for `req` and render the canonical result
    /// payload (compact MetricsSink JSON). Throws on simulation
    /// failure; never touches the cache.
    std::string computeResult(const Request& req);
    void send(const std::shared_ptr<Conn>& conn, const std::string& line);

    ServerOptions opt_;
    core::StudyRunner runner_;
    /// Canonical request key (Request::cacheKey()) -> result payload.
    apps::SingleFlight<std::string> cache_;

    Fd listener_;
    int port_ = 0;
    std::thread acceptThread_;
    std::vector<std::thread> workerThreads_;

    std::mutex stopMu_; ///< Serializes concurrent stop() teardowns.
    mutable std::mutex mu_;
    std::condition_variable queueCv_; ///< Workers sleep here.
    std::condition_variable idleCv_;  ///< stop() waits for drain here.
    std::condition_variable stopCv_;  ///< wait() sleeps here.
    std::deque<Job> queue_;
    int activeJobs_ = 0;
    bool stopping_ = false;          ///< Workers/acceptor must exit.
    bool shutdownRequested_ = false; ///< A client asked; wait() acts.
    bool started_ = false;
    bool stopped_ = false;
    std::vector<std::shared_ptr<Conn>> conns_;
    std::vector<std::thread> connThreads_;
    ServerStats stats_;
};

} // namespace ccnuma::serve

#endif // CCNUMA_SERVE_SERVER_HH
