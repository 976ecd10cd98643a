/**
 * @file
 * Strict recursive-descent JSON parser for the verification harness.
 *
 * Used to read golden-metrics baselines and to validate every JSON
 * document the simulator emits (MetricsSink grids, obs exporters).
 * Deliberately stricter than a general-purpose parser:
 *  - duplicate object keys are an error (they silently shadow data);
 *  - NaN/Infinity tokens are an error (they are not JSON and mean an
 *    unguarded computation leaked into a metrics file);
 *  - trailing garbage after the root value is an error.
 *
 * Numbers keep their raw source text so 64-bit cycle counts round-trip
 * exactly (a double mantissa cannot hold every uint64).
 */

#ifndef CCNUMA_CHECK_JSON_HH
#define CCNUMA_CHECK_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ccnuma::check::json {

/** One parsed JSON value (small DOM; object key order preserved). */
struct Value {
    enum class Kind : std::uint8_t {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string raw;  ///< Exact source text of a Number.
    std::string str;  ///< String contents (unescaped).
    std::vector<Value> arr;
    std::vector<std::pair<std::string, Value>> obj;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /// Member of an object, or nullptr.
    const Value* find(const std::string& key) const;
    /// True, with `out` set, when this is a non-negative integer that
    /// fits in a uint64 (no sign, fraction, exponent or overflow);
    /// false, with `out` untouched, for anything else.
    bool asCount(std::uint64_t& out) const;
    /// The count asCount reads, or 0 for anything that is not a count.
    std::uint64_t asU64() const;
    /// Number as double (0.0 if not a number).
    double asDouble() const { return isNumber() ? number : 0.0; }
};

/** Outcome of a parse: ok + root, or an error with position. */
struct ParseResult {
    bool ok = false;
    std::string error; ///< "offset N: message" when !ok.
    Value root;
};

/// Parse a complete JSON document (strict; see file comment).
ParseResult parse(const std::string& text);

/// Read a whole file and parse it; I/O errors surface in `error`.
ParseResult parseFile(const std::string& path);

} // namespace ccnuma::check::json

#endif // CCNUMA_CHECK_JSON_HH
