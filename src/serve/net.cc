#include "serve/net.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ccnuma::serve {

namespace {

[[noreturn]] void
throwErrno(const std::string& what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in
tcpAddr(const std::string& host, int port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw std::runtime_error("bad IPv4 address: " + host);
    return addr;
}

sockaddr_un
unixAddr(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(addr.sun_path))
        throw std::runtime_error("unix socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

/// Send small writes at once. Replies are NDJSON, one send() per line
/// as each worker finishes, so two answers on one connection are two
/// small segments; with Nagle on, the second waits until the first is
/// ACKed, and the peer delays that ACK by Linux's 40 ms minimum. A
/// pipelined client then sees every second reply 40 ms late. Each
/// reply is already one writeAll(), so nothing is worth coalescing.
void
setNoDelay(int fd)
{
    // Cannot fail on a connected TCP socket; nothing to recover if it
    // did (the connection still works, only slower).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

void
Fd::reset()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

void
Fd::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

std::pair<Fd, int>
listenTcp(const std::string& host, int port)
{
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        throwErrno("socket");
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = tcpAddr(host, port);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0)
        throwErrno("bind " + host + ":" + std::to_string(port));
    if (::listen(fd.get(), 64) != 0)
        throwErrno("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
        throwErrno("getsockname");
    return {std::move(fd), ntohs(addr.sin_port)};
}

Fd
listenUnix(const std::string& path)
{
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        throwErrno("socket");
    ::unlink(path.c_str());
    sockaddr_un addr = unixAddr(path);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0)
        throwErrno("bind " + path);
    if (::listen(fd.get(), 64) != 0)
        throwErrno("listen");
    return fd;
}

Fd
acceptOn(const Fd& listener)
{
    for (;;) {
        sockaddr_storage peer{};
        socklen_t len = sizeof(peer);
        const int fd = ::accept(listener.get(),
                                reinterpret_cast<sockaddr*>(&peer), &len);
        if (fd >= 0) {
            if (peer.ss_family == AF_INET) // Unix sockets have no Nagle
                setNoDelay(fd);
            return Fd(fd);
        }
        switch (errno) {
          case EINTR:
          case ECONNABORTED: // the peer gave up before we accepted
          case EPROTO:
          // Linux reports the new socket's pending network errors
          // through accept(2); the listener itself is fine.
          case ENETDOWN:
          case ENOPROTOOPT:
          case EHOSTDOWN:
          case ENONET:
          case EHOSTUNREACH:
          case EOPNOTSUPP:
          case ENETUNREACH:
            continue;
          default:
            return Fd();
        }
    }
}

Fd
connectTcp(const std::string& host, int port)
{
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        throwErrno("socket");
    sockaddr_in addr = tcpAddr(host, port);
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0)
        throwErrno("connect " + host + ":" + std::to_string(port));
    setNoDelay(fd.get());
    return fd;
}

Fd
connectUnix(const std::string& path)
{
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        throwErrno("socket");
    sockaddr_un addr = unixAddr(path);
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0)
        throwErrno("connect " + path);
    return fd;
}

ReadStatus
LineReader::next(std::string& out)
{
    bool overflowed = false;
    for (;;) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            if (overflowed || nl > maxLen_) {
                buf_.erase(0, nl + 1);
                return ReadStatus::TooLong;
            }
            out.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return ReadStatus::Line;
        }
        if (buf_.size() > maxLen_) {
            // Discard what we have; keep reading until the newline (or
            // EOF) so the next request starts on a frame boundary.
            overflowed = true;
            buf_.clear();
        }
        if (eof_)
            return buf_.empty() && !overflowed ? ReadStatus::Eof
                                               : ReadStatus::TooLong;
        char chunk[4096];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return ReadStatus::Error;
        }
        if (n == 0) {
            eof_ = true;
            // A final unterminated line still counts as a line (tools
            // like `printf '%s' req | nc` omit the trailing newline).
            if (!overflowed && !buf_.empty() && buf_.size() <= maxLen_) {
                out = std::move(buf_);
                buf_.clear();
                return ReadStatus::Line;
            }
            const bool bad = overflowed || !buf_.empty();
            buf_.clear();
            return bad ? ReadStatus::TooLong : ReadStatus::Eof;
        }
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
writeAll(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        // MSG_NOSIGNAL: a peer that vanished mid-pipeline must surface
        // as EPIPE (-> false), not as a SIGPIPE that kills embedders
        // (tests, library users) who never installed SIG_IGN.
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace ccnuma::serve
