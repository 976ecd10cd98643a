#include "serve/wire.hh"

#include <cmath>
#include <utility>

#include "apps/registry.hh"
#include "check/json.hh"
#include "obs/json.hh"

namespace ccnuma::serve {

namespace {

namespace json = check::json;
using obs::JsonWriter;

ParsedRequest
reject(std::string id, std::string code, std::string detail)
{
    ParsedRequest r;
    r.error = std::move(code);
    r.detail = std::move(detail);
    r.req.id = std::move(id);
    return r;
}

} // namespace

std::string
Request::cacheKey() const
{
    // Resolve protocol/dirFormat through the machine so an explicit
    // "mesi" and the default collapse to one key.
    const sim::MachineConfig cfg =
        machineFor(type == Type::Trace ? trace.procs
                   : procs.empty()     ? 1
                                       : procs.front());
    std::string key;
    if (type == Type::Trace) {
        key = "trace|" + traceHash;
    } else {
        key = "study|" + app + "|" + std::to_string(size) + "|procs=";
        for (std::size_t i = 0; i < procs.size(); ++i) {
            if (i)
                key += ',';
            key += std::to_string(procs[i]);
        }
        key += baseline ? "|base" : "|nobase";
    }
    key += "|" + cfg.protocol.name() + "|" + cfg.dirFormat.name();
    key += obs ? "|obs" : "|noobs";
    return key;
}

sim::MachineConfig
Request::machineFor(int nprocs) const
{
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(nprocs);
    if (!protocol.empty())
        cfg.protocol.parse(protocol); // validated by parseRequest
    if (!dirFormat.empty())
        cfg.dirFormat.parse(dirFormat);
    if (obs)
        cfg.trace.sharing = true;
    return cfg;
}

ParsedRequest
parseRequest(const std::string& line)
{
    const json::ParseResult doc = json::parse(line);
    if (!doc.ok)
        return reject("", "bad-json", doc.error);
    if (!doc.root.isObject())
        return reject("", "bad-request", "request must be an object");

    std::string id;
    if (const json::Value* v = doc.root.find("id");
        v && v->isString())
        id = v->str;
    else
        return reject("", "bad-request", "missing string field 'id'");

    const json::Value* tv = doc.root.find("type");
    if (!tv || !tv->isString())
        return reject(id, "bad-request", "missing string field 'type'");

    ParsedRequest out;
    Request& req = out.req;
    req.id = id;
    if (tv->str == "ping")
        req.type = Request::Type::Ping;
    else if (tv->str == "study")
        req.type = Request::Type::Study;
    else if (tv->str == "trace")
        req.type = Request::Type::Trace;
    else if (tv->str == "shutdown")
        req.type = Request::Type::Shutdown;
    else
        return reject(id, "bad-request",
                      "unknown type '" + tv->str + "'");

    for (const auto& [key, v] : doc.root.obj) {
        if (key == "id" || key == "type")
            continue;
        const bool study = req.type == Request::Type::Study;
        const bool tracereq = req.type == Request::Type::Trace;
        if (key == "app" && study) {
            if (!v.isString() || v.str.empty())
                return reject(id, "bad-request",
                              "'app' must be a non-empty string");
            req.app = v.str;
        } else if (key == "size" && study) {
            if (!v.asCount(req.size))
                return reject(id, "bad-request",
                              "'size' must be a non-negative integer");
        } else if (key == "procs" && study) {
            if (!v.isArray() || v.arr.empty())
                return reject(id, "bad-request",
                              "'procs' must be a non-empty array");
            for (const json::Value& e : v.arr) {
                std::uint64_t p = 0;
                if (!e.asCount(p) || p < 1 || p > 4096)
                    return reject(id, "bad-request",
                                  "'procs' entries must be integers "
                                  "in [1, 4096]");
                req.procs.push_back(static_cast<int>(p));
            }
        } else if (key == "baseline" && study) {
            if (v.kind != json::Value::Kind::Bool)
                return reject(id, "bad-request",
                              "'baseline' must be a bool");
            req.baseline = v.boolean;
        } else if (key == "trace" && tracereq) {
            if (!v.isString())
                return reject(id, "bad-request",
                              "'trace' must be a string");
            apps::TraceParseResult tr = apps::parseTrace(v.str);
            if (!tr.ok)
                return reject(id, "bad-request", "trace: " + tr.error);
            req.trace = std::move(tr.trace);
            req.traceHash = req.trace.hashHex();
        } else if (key == "protocol" && (study || tracereq)) {
            sim::ProtocolConfig scratch;
            if (!v.isString() || !scratch.parse(v.str))
                return reject(id, "bad-request",
                              "unknown protocol (mesi|moesi|dragon)");
            req.protocol = v.str;
        } else if (key == "dirFormat" && (study || tracereq)) {
            sim::DirectoryConfig scratch;
            if (!v.isString() || !scratch.parse(v.str))
                return reject(
                    id, "bad-request",
                    "unknown dirFormat (fullbv|coarse:K|ptr:N)");
            req.dirFormat = v.str;
        } else if (key == "obs" && (study || tracereq)) {
            if (v.kind != json::Value::Kind::Bool)
                return reject(id, "bad-request", "'obs' must be a bool");
            req.obs = v.boolean;
        } else if (key == "deadlineMs" && (study || tracereq)) {
            if (!v.asCount(req.deadlineMs))
                return reject(
                    id, "bad-request",
                    "'deadlineMs' must be a non-negative integer");
            req.hasDeadline = true;
        } else {
            return reject(id, "bad-request",
                          "unexpected field '" + key + "' for type '" +
                              tv->str + "'");
        }
    }

    if (req.type == Request::Type::Study) {
        if (req.app.empty())
            return reject(id, "bad-request", "study needs 'app'");
        if (!apps::tryMakeApp(req.app))
            return reject(id, "bad-request",
                          "unknown app '" + req.app + "'");
        if (req.procs.empty())
            return reject(id, "bad-request", "study needs 'procs'");
        for (const int p : req.procs) {
            const std::string err = req.machineFor(p).validate();
            if (!err.empty())
                return reject(id, "bad-request",
                              "procs=" + std::to_string(p) + ": " + err);
        }
    } else if (req.type == Request::Type::Trace) {
        if (req.trace.procs == 0)
            return reject(id, "bad-request", "trace needs 'trace'");
        const std::string err =
            req.machineFor(req.trace.procs).validate();
        if (!err.empty())
            return reject(id, "bad-request", err);
    }

    out.ok = true;
    return out;
}

std::string
errorResponse(const std::string& id, const std::string& code,
              const std::string& detail)
{
    return "{\"id\":\"" + JsonWriter::escape(id) +
           "\",\"ok\":false,\"error\":\"" + JsonWriter::escape(code) +
           "\",\"detail\":\"" + JsonWriter::escape(detail) + "\"}\n";
}

std::string
resultResponse(const std::string& id, bool cached,
               const std::string& resultJson)
{
    return "{\"id\":\"" + JsonWriter::escape(id) +
           "\",\"ok\":true,\"cached\":" + (cached ? "true" : "false") +
           ",\"result\":" + resultJson + "}\n";
}

std::string
ackResponse(const std::string& id, const std::string& type)
{
    return "{\"id\":\"" + JsonWriter::escape(id) +
           "\",\"ok\":true,\"type\":\"" + JsonWriter::escape(type) +
           "\"}\n";
}

} // namespace ccnuma::serve
