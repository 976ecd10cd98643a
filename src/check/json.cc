#include "check/json.hh"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ccnuma::check::json {

const Value*
Value::find(const std::string& key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto& [k, v] : obj)
        if (k == key)
            return &v;
    return nullptr;
}

bool
Value::asCount(std::uint64_t& out) const
{
    if (!isNumber() || raw.find_first_of(".-eE") != std::string::npos)
        return false;
    std::uint64_t v = 0;
    const char* const last = raw.data() + raw.size();
    const auto [p, ec] = std::from_chars(raw.data(), last, v);
    if (ec != std::errc{} || p != last)
        return false;
    out = v;
    return true;
}

std::uint64_t
Value::asU64() const
{
    std::uint64_t v = 0;
    return asCount(v) ? v : 0;
}

namespace {

/** Single-pass parser over the document text. */
class Parser
{
  public:
    explicit Parser(const std::string& text) : s_(text) {}

    ParseResult
    run()
    {
        ParseResult out;
        skipWs();
        if (!parseValue(out.root)) {
            out.error = errorAt();
            return out;
        }
        skipWs();
        if (pos_ != s_.size()) {
            fail("trailing garbage after document root");
            out.error = errorAt();
            return out;
        }
        out.ok = true;
        return out;
    }

  private:
    bool
    fail(const std::string& msg)
    {
        if (err_.empty())
            err_ = msg;
        return false;
    }

    std::string
    errorAt() const
    {
        std::ostringstream os;
        os << "offset " << pos_ << ": " << err_;
        return os.str();
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char* word, std::size_t n)
    {
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(Value& v)
    {
        if (pos_ >= s_.size())
            return fail("unexpected end of document");
        const char c = s_[pos_];
        switch (c) {
        case '{': return parseObject(v);
        case '[': return parseArray(v);
        case '"': v.kind = Value::Kind::String; return parseString(v.str);
        case 't':
            if (!literal("true", 4))
                return fail("bad token (expected 'true')");
            v.kind = Value::Kind::Bool;
            v.boolean = true;
            return true;
        case 'f':
            if (!literal("false", 5))
                return fail("bad token (expected 'false')");
            v.kind = Value::Kind::Bool;
            v.boolean = false;
            return true;
        case 'n':
            if (!literal("null", 4))
                return fail("bad token (expected 'null')");
            v.kind = Value::Kind::Null;
            return true;
        case 'N': case 'I':
            return fail("NaN/Infinity are not valid JSON");
        default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber(v);
            return fail(std::string("unexpected character '") + c + "'");
        }
    }

    bool
    parseNumber(Value& v)
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        if (pos_ < s_.size() && (s_[pos_] == 'N' || s_[pos_] == 'I'))
            return fail("NaN/Infinity are not valid JSON");
        bool digits = false;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
            digits = true;
        }
        if (!digits)
            return fail("malformed number");
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (pos_ >= s_.size() ||
                !std::isdigit(static_cast<unsigned char>(s_[pos_])))
                return fail("malformed number (no digits after '.')");
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (pos_ >= s_.size() ||
                !std::isdigit(static_cast<unsigned char>(s_[pos_])))
                return fail("malformed number (empty exponent)");
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
        }
        v.kind = Value::Kind::Number;
        v.raw = s_.substr(start, pos_ - start);
        v.number = std::strtod(v.raw.c_str(), nullptr);
        return true;
    }

    bool
    parseString(std::string& out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (++pos_ >= s_.size())
                return fail("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad hex digit in \\u escape");
                }
                // Metrics files are ASCII; encode BMP points as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(Value& v)
    {
        v.kind = Value::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            Value elem;
            skipWs();
            if (!parseValue(elem))
                return false;
            v.arr.push_back(std::move(elem));
            skipWs();
            if (pos_ >= s_.size())
                return fail("unterminated array");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseObject(Value& v)
    {
        v.kind = Value::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected object key string");
            std::string key;
            if (!parseString(key))
                return false;
            for (const auto& [k, unused] : v.obj) {
                (void)unused;
                if (k == key)
                    return fail("duplicate object key \"" + key + "\"");
            }
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipWs();
            Value member;
            if (!parseValue(member))
                return false;
            v.obj.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos_ >= s_.size())
                return fail("unterminated object");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    const std::string& s_;
    std::size_t pos_ = 0;
    std::string err_;
};

} // namespace

ParseResult
parse(const std::string& text)
{
    return Parser(text).run();
}

ParseResult
parseFile(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        ParseResult out;
        out.error = "cannot open " + path;
        return out;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    return parse(ss.str());
}

} // namespace ccnuma::check::json
