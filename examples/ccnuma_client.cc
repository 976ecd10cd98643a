/**
 * @file
 * Command-line client for ccnuma_serve: builds schema-v1 requests,
 * sends them over TCP or a Unix socket, and prints each response line.
 *
 *   ccnuma_client [--host=A] [--port=N] [--unix=PATH] <actions...>
 *
 * Actions (any mix; executed in order on one connection):
 *   --ping                 liveness probe
 *   --study=APP            run APP; combine with --size=N and
 *                          --procs=1,2,4 (defaults: basic size, 4)
 *   --trace-file=PATH      upload a ccnuma-trace v1 file and run it
 *   --obs                  request hot-line artifacts (study/trace)
 *   --no-baseline          study without the uniprocessor baseline
 *   --raw=JSON             send a raw request line verbatim
 *   --shutdown             ask the server to drain and exit
 *
 * Exit status: 0 iff every response came back ok:true.
 * See serve/wire.hh for the protocol.
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

    core::cli::Options opt = core::cli::parse(argc, argv);

    std::string host = "127.0.0.1";
    std::string unixPath;
    std::uint64_t port = 0;
    std::string value;
    if (opt.takeFlag("host", value))
        host = value;
    if (opt.takeFlag("unix", value))
        unixPath = value;
    if (opt.takeFlag("port", value) &&
        !core::cli::parseU64(value, port)) {
        std::fprintf(stderr, "ccnuma_client: bad --port '%s'\n",
                     value.c_str());
        return 2;
    }

    // Options shared by the study/trace request builders.
    std::string size = "0";
    std::string procs = "4";
    if (opt.takeFlag("size", value))
        size = value;
    if (opt.takeFlag("procs", value))
        procs = value;
    const bool obs = opt.takeSwitch("obs");
    const bool noBaseline = opt.takeSwitch("no-baseline");

    // Assemble request lines in flag order.
    std::vector<std::string> requests;
    int id = 0;
    const auto nextId = [&] { return std::to_string(++id); };
    while (opt.takeSwitch("ping"))
        requests.push_back("{\"id\":\"" + nextId() +
                           "\",\"type\":\"ping\"}");
    while (opt.takeFlag("study", value)) {
        std::string req = "{\"id\":\"" + nextId() +
                          "\",\"type\":\"study\",\"app\":\"" +
                          obs::JsonWriter::escape(value) +
                          "\",\"size\":" + size + ",\"procs\":[" + procs +
                          "]";
        if (noBaseline)
            req += ",\"baseline\":false";
        if (obs)
            req += ",\"obs\":true";
        requests.push_back(req + "}");
    }
    while (opt.takeFlag("trace-file", value)) {
        std::ifstream f(value);
        if (!f) {
            std::fprintf(stderr, "ccnuma_client: cannot read %s\n",
                         value.c_str());
            return 2;
        }
        std::ostringstream text;
        text << f.rdbuf();
        std::string req = "{\"id\":\"" + nextId() +
                          "\",\"type\":\"trace\",\"trace\":\"" +
                          obs::JsonWriter::escape(text.str()) + "\"";
        if (obs)
            req += ",\"obs\":true";
        requests.push_back(req + "}");
    }
    while (opt.takeFlag("raw", value))
        requests.push_back(value);
    const bool shutdown = opt.takeSwitch("shutdown");
    if (shutdown)
        requests.push_back("{\"id\":\"" + nextId() +
                           "\",\"type\":\"shutdown\"}");
    core::cli::warnUnknown(opt);
    if (requests.empty()) {
        std::fprintf(stderr,
                     "ccnuma_client: nothing to do (try --ping)\n");
        return 2;
    }

    serve::Fd conn;
    try {
        conn = unixPath.empty()
                   ? serve::connectTcp(host, static_cast<int>(port))
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
