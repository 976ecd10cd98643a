/**
 * @file
 * The ccnuma_serve daemon: bind a socket, serve simulation requests
 * until SIGINT/SIGTERM or a client "shutdown" request, then drain and
 * exit 0.
 *
 *   ccnuma_serve [flags]    (`--help` lists them)
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

    serve::ServerOptions so;
    so.jobs = 1;
    const core::cli::Command cmd{
        "ccnuma_serve",
        "serve simulation requests until SIGINT/SIGTERM or a shutdown "
        "request",
        {},
        {{"port=N", &so.port, "TCP port; 0 = an ephemeral port"},
         {"host=A", &so.host, "address to bind (default 127.0.0.1)"},
         {"unix=PATH", &so.unixPath, "serve a Unix socket instead of TCP"},
         {"workers=N", &so.workers, "queue-draining threads (default 2)"},
         {"jobs=N", &so.jobs,
          "StudyRunner threads (default 1); 0 = one per host core"},
         {"max-queue=N", &so.maxQueue, "admission queue bound (default 64)"},
         {"cache=N", &so.cacheEntries, "result cache entries (default 128)"},
         {"max-request-bytes=N", &so.maxRequestBytes,
          "per-line request size limit (default 4 MiB)"}}};
    if (const auto rc = core::cli::parse(cmd, argc, argv))
        return *rc;
    if (so.port > 65535)
        return core::cli::usageError(cmd, "bad --port value");

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
