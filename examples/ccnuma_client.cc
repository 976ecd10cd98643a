/**
 * @file
 * Command-line client for ccnuma_serve: builds schema-v1 requests,
 * sends them over TCP or a Unix socket, and prints each response line.
 *
 *   ccnuma_client [--host=A] [--port=N] [--unix=PATH] <actions...>
 *
 * `--help` lists the actions and the order they are sent in. See
 * serve/wire.hh for the protocol.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "obs/json.hh"
#include "serve/net.hh"

int
main(int argc, char** argv)
{
    using namespace ccnuma;

    std::string host = "127.0.0.1";
    std::string unixPath;
    int port = 0;
    bool ping = false;
    std::vector<std::string> studies;
    std::uint64_t size = 0;
    std::vector<int> procs = {4};
    std::vector<std::string> traceFiles;
    bool obs = false;
    bool noBaseline = false;
    std::vector<std::string> raws;
    bool shutdown = false;
    const core::cli::Command cmd{
        "ccnuma_client",
        "send schema-v1 requests to ccnuma_serve and print each response",
        {},
        {{"host=A", &host, "server address (default 127.0.0.1)"},
         {"port=N", &port, "server TCP port"},
         {"unix=PATH", &unixPath, "connect to a Unix socket instead"},
         {"ping", &ping, "liveness probe"},
         {"study=APP", &studies, "run APP (repeatable)"},
         {"size=N", &size, "study problem size; 0 = basic size"},
         {"procs=P1,P2,..", &procs, "study machine sizes (default 4)"},
         {"trace-file=PATH", &traceFiles,
          "upload a ccnuma-trace v1 file and run it (repeatable)"},
         {"obs", &obs, "request hot-line artifacts (study/trace)"},
         {"no-baseline", &noBaseline,
          "study without the uniprocessor baseline"},
         {"raw=JSON", &raws, "send a raw request line verbatim (repeatable)"},
         {"shutdown", &shutdown, "ask the server to drain and exit"}},
        "Requests go out on one connection in this order, whatever the "
        "flag order:\nping, studies, trace files, raw lines, shutdown. "
        "Exit status: 0 iff every\nresponse came back ok:true.\n"};
    if (const auto rc = core::cli::parse(cmd, argc, argv))
        return *rc;

    std::vector<std::string> requests;
    int id = 0;
    const auto header = [&id](const char* type) {
        return "{\"id\":\"" + std::to_string(++id) + "\",\"type\":\"" +
               type + "\"";
    };
    const std::string extras = obs ? ",\"obs\":true" : "";
    if (ping)
        requests.push_back(header("ping") + "}");
    for (const std::string& app : studies) {
        std::string req = header("study") + ",\"app\":\"" +
                          obs::JsonWriter::escape(app) +
                          "\",\"size\":" + std::to_string(size) +
                          ",\"procs\":[";
        for (std::size_t i = 0; i < procs.size(); ++i)
            req += (i ? "," : "") + std::to_string(procs[i]);
        req += "]";
        if (noBaseline)
            req += ",\"baseline\":false";
        requests.push_back(req + extras + "}");
    }
    for (const std::string& path : traceFiles) {
        std::ifstream f(path);
        if (!f) {
            std::fprintf(stderr, "ccnuma_client: cannot read %s\n",
                         path.c_str());
            return 2;
        }
        std::ostringstream text;
        text << f.rdbuf();
        requests.push_back(header("trace") + ",\"trace\":\"" +
                           obs::JsonWriter::escape(text.str()) + "\"" +
                           extras + "}");
    }
    requests.insert(requests.end(), raws.begin(), raws.end());
    if (shutdown)
        requests.push_back(header("shutdown") + "}");
    if (requests.empty())
        return core::cli::usageError(cmd, "nothing to do (try --ping)");

    serve::Fd conn;
    try {
        conn = unixPath.empty()
                   ? serve::connectTcp(host, port)
                   : serve::connectUnix(unixPath);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ccnuma_client: %s\n", e.what());
        return 1;
    }

    bool allOk = true;
    serve::LineReader reader(conn.get(), 64u << 20);
    for (const std::string& req : requests) {
        if (!serve::writeAll(conn.get(), req + "\n")) {
            std::fprintf(stderr, "ccnuma_client: write failed\n");
            return 1;
        }
        std::string resp;
        if (reader.next(resp) != serve::ReadStatus::Line) {
            std::fprintf(stderr,
                         "ccnuma_client: connection closed early\n");
            return 1;
        }
        std::printf("%s\n", resp.c_str());
        if (resp.find("\"ok\":true") == std::string::npos)
            allOk = false;
    }
    return allOk ? 0 : 1;
}
