/**
 * @file
 * Socket-layer tests for ccnuma_serve (serve/net.hh and the server's
 * accept loop), run under ThreadSanitizer (label: unit-tsan):
 *  - both ends of a TCP connection send small writes at once
 *    (TCP_NODELAY), so pipelined replies do not wait for the peer's
 *    delayed ACK;
 *  - Unix-domain sockets, where the option does not apply, still
 *    connect and answer;
 *  - a server whose accept() runs out of descriptors accepts again
 *    once they are freed.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "serve/net.hh"
#include "serve/server.hh"

namespace {

using namespace ccnuma;

serve::ServerOptions
testOptions()
{
    serve::ServerOptions so;
    so.workers = 2;
    so.jobs = 2;
    return so;
}

int
noDelayOf(int fd)
{
    int on = -1;
    socklen_t len = sizeof(on);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
    return on;
}

/// Bound every read on `fd`, so a server that never answers fails the
/// test instead of hanging it.
void
setRecvTimeout(int fd, std::chrono::seconds t)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(t.count());
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)),
              0);
}

/// Send a ping and expect its pong (within the socket's timeout).
void
expectPong(int fd)
{
    ASSERT_TRUE(serve::writeAll(fd, "{\"id\":\"p\",\"type\":\"ping\"}\n"));
    serve::LineReader reader(fd, 1u << 20);
    std::string resp;
    ASSERT_EQ(reader.next(resp), serve::ReadStatus::Line);
    EXPECT_NE(resp.find("\"type\":\"pong\""), std::string::npos) << resp;
}

TEST(ServeNet, TcpEndsSetNoDelay)
{
    auto [listener, port] = serve::listenTcp("127.0.0.1", 0);
    serve::Fd client = serve::connectTcp("127.0.0.1", port);
    serve::Fd accepted = serve::acceptOn(listener);
    ASSERT_TRUE(accepted.valid());
    EXPECT_EQ(noDelayOf(client.get()), 1);
    EXPECT_EQ(noDelayOf(accepted.get()), 1);
}

TEST(ServeNet, UnixSocketRoundTrip)
{
    serve::ServerOptions so = testOptions();
    so.unixPath = ::testing::TempDir() + "ccnuma_serve_net_test.sock";
    serve::Server server(so);
    server.start();
    serve::Fd fd = serve::connectUnix(so.unixPath);
    setRecvTimeout(fd.get(), std::chrono::seconds(5));
    expectPong(fd.get());
    server.stop();
    EXPECT_EQ(server.stats().accepted, 1u);
}

// Two requests in one segment get two replies, each its own send().
// With Nagle on the server's socket the second reply waits for the
// client's delayed ACK of the first: about 40 ms per round on Linux.
TEST(ServeNet, PipelinedRepliesDoNotWaitForDelayedAcks)
{
    serve::Server server(testOptions());
    server.start();
    serve::Fd fd = serve::connectTcp("127.0.0.1", server.port());
    setRecvTimeout(fd.get(), std::chrono::seconds(5));
    serve::LineReader reader(fd.get(), 1u << 20);
    const std::string two = "{\"id\":\"a\",\"type\":\"ping\"}\n"
                            "{\"id\":\"b\",\"type\":\"ping\"}\n";
    constexpr int kRounds = 10;
    const auto t0 = std::chrono::steady_clock::now();
    for (int round = 0; round < kRounds; ++round) {
        ASSERT_TRUE(serve::writeAll(fd.get(), two));
        std::string resp;
        for (const char* id : {"\"a\"", "\"b\""}) {
            ASSERT_EQ(reader.next(resp), serve::ReadStatus::Line);
            EXPECT_NE(resp.find(id), std::string::npos) << resp;
        }
    }
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_LT(ms.count(), 200) << kRounds << " rounds of two pings";
    server.stop();
}

/// Restores the soft descriptor limit on scope exit.
class NoFileLimit
{
  public:
    NoFileLimit() { EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0); }
    ~NoFileLimit() { restore(); }
    NoFileLimit(const NoFileLimit&) = delete;
    NoFileLimit& operator=(const NoFileLimit&) = delete;

    /// Only descriptors below `n` can be allocated from now on.
    void
    lower(rlim_t n)
    {
        rlimit lim = saved_;
        lim.rlim_cur = n;
        ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lim), 0);
    }
    void restore() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

  private:
    rlimit saved_{};
};

// A client can run the server out of descriptors by holding
// connections open. accept() then fails with EMFILE; once descriptors
// are free again the server must accept new connections.
TEST(ServeNet, AcceptRecoversAfterDescriptorExhaustion)
{
    serve::Server server(testOptions());
    server.start();

    // Make the client sockets first: connect() takes no descriptor, so
    // under the lowered limit only the server's accept() fails.
    constexpr int kHeld = 2;
    serve::Fd held[kHeld];
    for (serve::Fd& h : held) {
        h = serve::Fd(::socket(AF_INET, SOCK_STREAM, 0));
        ASSERT_TRUE(h.valid());
    }
    // The lowest free descriptor; every one below it is taken.
    const int lowest = ::dup(held[0].get());
    ASSERT_GE(lowest, 0);
    ::close(lowest);

    NoFileLimit limit;
    limit.lower(static_cast<rlim_t>(lowest));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (serve::Fd& h : held)
        ASSERT_EQ(::connect(h.get(), reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
    // accept(2) reserves its descriptor number before it blocks, so a
    // call already waiting may take one connection; the next fails.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_LT(server.stats().accepted, static_cast<std::uint64_t>(kHeld))
        << "accept() kept succeeding under the lowered descriptor limit";

    limit.restore();
    for (serve::Fd& h : held)
        h.reset();
    serve::Fd fd = serve::connectTcp("127.0.0.1", server.port());
    setRecvTimeout(fd.get(), std::chrono::seconds(3));
    expectPong(fd.get());
    server.stop();
}

} // namespace
