/**
 * @file
 * ccnuma_serve wire protocol, schema v1.
 *
 * Framing is NDJSON: one request object per line in, one response
 * object per line out, over one long-lived connection. Requests are
 * validated with the strict ccnuma::check::json parser (duplicate
 * keys, NaN/Infinity and trailing garbage are errors), so a request
 * either parses completely or earns a typed rejection.
 *
 * Requests (fields beyond these are rejected as "bad-request"):
 *
 *   {"id":"r1","type":"ping"}
 *   {"id":"r2","type":"study","app":"fft","size":1024,
 *    "procs":[2,4], "protocol":"mesi","dirFormat":"fullbv",
 *    "baseline":true,"obs":false,"deadlineMs":5000}
 *   {"id":"r3","type":"trace","trace":"ccnuma-trace v1\n...","obs":true}
 *   {"id":"r4","type":"shutdown"}
 *
 * `id` is an arbitrary client string echoed back verbatim — responses
 * to concurrent requests are matched by id, not order. Optional
 * fields: size (0 = the app's basic size), protocol, dirFormat,
 * baseline (study only, default true), obs (attach the sharing
 * profiler and return hot-line artifacts), deadlineMs (admission
 * deadline; a request that waited >= deadlineMs before a worker
 * *started* it is rejected "expired" — so 0 expires immediately, a
 * queue-latency probe; omit the field for no deadline).
 *
 * Responses:
 *
 *   {"id":"r2","ok":true,"cached":false,"result":{...MetricsSink...}}
 *   {"id":"r1","ok":true,"type":"pong"}
 *   {"id":"rX","ok":false,"error":"<code>","detail":"..."}
 *
 * Error codes: "bad-json" (line is not valid JSON), "bad-request"
 * (valid JSON, invalid request), "too-large" (line exceeded the
 * server's request-size limit), "overloaded" (admission queue full),
 * "expired" (deadlineMs elapsed before a worker picked it up),
 * "sim-failed" (the simulation itself threw). The connection survives
 * every error; only "shutdown" (or the client closing) ends it.
 */

#ifndef CCNUMA_SERVE_WIRE_HH
#define CCNUMA_SERVE_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/trace.hh"
#include "sim/config.hh"

namespace ccnuma::serve {

/** A validated request. */
struct Request {
    enum class Type : std::uint8_t { Ping, Study, Trace, Shutdown };

    std::string id;
    Type type = Type::Ping;

    // ---- study ----
    std::string app;
    std::uint64_t size = 0;
    std::vector<int> procs;
    bool baseline = true;

    // ---- trace ----
    apps::Trace trace;
    std::string traceHash; ///< Content identity (Trace::hashHex()).

    // ---- common ----
    std::string protocol;  ///< Empty = machine default.
    std::string dirFormat; ///< Empty = machine default.
    bool obs = false;
    bool hasDeadline = false;
    std::uint64_t deadlineMs = 0;

    /**
     * Canonical result-cache key. Includes everything that determines
     * the payload bytes (type, app/size or trace hash, processor list,
     * protocol, dirFormat, baseline, obs) and deliberately excludes
     * execution knobs that provably do not (worker counts, and the
     * deadline, which gates admission, not results).
     */
    std::string cacheKey() const;

    /// The machine a study/trace run on `nprocs` processors uses,
    /// with protocol/dirFormat/obs applied.
    sim::MachineConfig machineFor(int nprocs) const;
};

/** parseRequest outcome: a request or a typed rejection. */
struct ParsedRequest {
    bool ok = false;
    std::string error;  ///< Error code ("bad-json" | "bad-request").
    std::string detail; ///< Human-readable specifics.
    Request req;        ///< Valid when ok; req.id survives a
                        ///< bad-request when the id itself parsed.
};

/// Validate one NDJSON request line (strict; see file comment).
ParsedRequest parseRequest(const std::string& line);

/// One-line error response (+ '\n').
std::string errorResponse(const std::string& id, const std::string& code,
                          const std::string& detail);

/// One-line success response embedding `resultJson` verbatim (+ '\n');
/// `resultJson` must already be compact valid JSON (MetricsSink::str).
std::string resultResponse(const std::string& id, bool cached,
                           const std::string& resultJson);

/// One-line typed acknowledgement (+ '\n'), e.g.
/// {"id":"r1","ok":true,"type":"pong"}.
std::string ackResponse(const std::string& id, const std::string& type);

} // namespace ccnuma::serve

#endif // CCNUMA_SERVE_WIRE_HH
