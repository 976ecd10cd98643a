/**
 * @file
 * Minimal POSIX socket layer for ccnuma_serve: RAII descriptors,
 * TCP/Unix listeners, blocking connect, and length-bounded
 * newline-delimited reads (the NDJSON framing both sides speak).
 *
 * Kept deliberately tiny and dependency-free — just enough for a
 * loopback research service, not a general networking library.
 */

#ifndef CCNUMA_SERVE_NET_HH
#define CCNUMA_SERVE_NET_HH

#include <cstddef>
#include <string>
#include <utility>

namespace ccnuma::serve {

/** Owning file descriptor (move-only; closes on destruction). */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }
    Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Fd&
    operator=(Fd&& o) noexcept
    {
        if (this != &o) {
            reset();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    void reset();
    /// shutdown(2) both directions — unblocks a peer thread stuck in
    /// read()/accept() without racing the close.
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/**
 * Bind + listen on host:port (TCP, SO_REUSEADDR). port 0 binds an
 * ephemeral port; the second member reports the resolved one.
 * @throws std::runtime_error with errno text on failure.
 */
std::pair<Fd, int> listenTcp(const std::string& host, int port);

/// Bind + listen on a Unix-domain socket path (unlinks a stale one).
/// @throws std::runtime_error with errno text on failure.
Fd listenUnix(const std::string& path);

/**
 * Accept one connection, retrying interrupted and aborted handshakes.
 * A TCP connection comes back with TCP_NODELAY set. Any other failure
 * returns an invalid Fd with errno set: EINVAL once the listener was
 * shut down, or a transient shortage (EMFILE, ENFILE, ENOBUFS,
 * ENOMEM) the caller should wait out and retry.
 */
Fd acceptOn(const Fd& listener);

/// Blocking TCP connect (tests and ccnuma_client), TCP_NODELAY set.
/// @throws std::runtime_error with errno text on failure.
Fd connectTcp(const std::string& host, int port);

/// Blocking Unix-domain connect.
/// @throws std::runtime_error with errno text on failure.
Fd connectUnix(const std::string& path);

/** One readLine() outcome. */
enum class ReadStatus {
    Line,    ///< `out` holds one line (newline stripped).
    Eof,     ///< Peer closed with no pending data.
    TooLong, ///< Line exceeded the limit; it was drained and discarded.
    Error,   ///< read(2) failed.
};

/**
 * Buffered per-connection line reader. A line longer than `maxLen`
 * reports TooLong once, after discarding input through the offending
 * newline, so the connection stays usable for the next request —
 * oversized-request rejection must not cost the client its session.
 */
class LineReader
{
  public:
    explicit LineReader(int fd, std::size_t maxLen)
        : fd_(fd), maxLen_(maxLen)
    {
    }

    ReadStatus next(std::string& out);

  private:
    int fd_;
    std::size_t maxLen_;
    std::string buf_;
    bool eof_ = false;
};

/// send(2) with MSG_NOSIGNAL until everything is out; false on any
/// failure. A vanished peer reports EPIPE instead of raising SIGPIPE,
/// so embedders need no signal handling. Socket fds only.
bool writeAll(int fd, const std::string& data);

} // namespace ccnuma::serve

#endif // CCNUMA_SERVE_NET_HH
