/**
 * @file
 * The ccnuma_serve daemon: bind a socket, serve simulation requests
 * until SIGINT/SIGTERM or a client "shutdown" request, then drain and
 * exit 0.
 *
 *   ccnuma_serve [--port=N] [--host=A] [--unix=PATH] [--workers=N]
 *                [--jobs=N] [--max-queue=N] [--cache=N]
 *                [--max-request-bytes=N]
 *
 * Prints exactly one "listening on ..." line to stdout once ready
 * (scripts block on it), then serves. See serve/wire.hh for the
 * protocol and README.md for a copy-paste session.
 */

#include <csignal>
#include <cstdio>
#include <string>

#include "core/cli.hh"
#include "serve/server.hh"

namespace {

volatile std::sig_atomic_t gSignal = 0;

void
onSignal(int)
{
    gSignal = 1;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ccnuma;

    core::cli::Options opt = core::cli::parse(argc, argv);
    serve::ServerOptions so;
    so.jobs = opt.jobs;

    std::string value;
    if (opt.takeFlag("host", value))
        so.host = value;
    if (opt.takeFlag("unix", value))
        so.unixPath = value;
    std::uint64_t port = 0;
    auto workers = static_cast<std::uint64_t>(so.workers);
    opt.takeU64("port", port);
    opt.takeU64("workers", workers);
    opt.takeU64("max-queue", so.maxQueue);
    opt.takeU64("cache", so.cacheEntries);
    opt.takeU64("max-request-bytes", so.maxRequestBytes);
    // An unknown flag only warns; a malformed number is fatal.
    core::cli::warnUnknown(opt);
    if (!opt.malformed.empty())
        return 2;
    if (port > 65535) {
        std::fprintf(stderr, "ccnuma_serve: bad --port value\n");
        return 2;
    }
    so.port = static_cast<int>(port);
    so.workers = static_cast<int>(workers);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN); // peers may vanish mid-response

    serve::Server server(so);
    try {
        server.start();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ccnuma_serve: %s\n", e.what());
        return 1;
    }
    if (so.unixPath.empty())
        std::printf("listening on %s:%d\n", so.host.c_str(),
                    server.port());
    else
        std::printf("listening on %s\n", so.unixPath.c_str());
    std::fflush(stdout);

    // Alternate between waiting for a client shutdown request and
    // polling the signal flag (a handler cannot notify a condvar).
    while (gSignal == 0 &&
           !server.waitFor(std::chrono::milliseconds(200))) {
    }
    server.stop();

    const serve::ServerStats st = server.stats();
    std::fprintf(stderr,
                 "ccnuma_serve: served %llu (cache hits %llu, sims "
                 "%llu), rejected %llu, expired %llu, failed %llu\n",
                 static_cast<unsigned long long>(st.served),
                 static_cast<unsigned long long>(st.cacheHits),
                 static_cast<unsigned long long>(st.simsRun),
                 static_cast<unsigned long long>(st.rejectedOverload +
                                                 st.rejectedTooLarge +
                                                 st.badRequests),
                 static_cast<unsigned long long>(st.expired),
                 static_cast<unsigned long long>(st.simFailed));
    return 0;
}
