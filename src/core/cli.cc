#include "core/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/config.hh"

namespace ccnuma::core::cli {

namespace {

/// Returns the value part if `arg` is "--name=value", else nullptr.
const char*
flagValue(const char* arg, const char* name)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, "--", 2) != 0 ||
        std::strncmp(arg + 2, name, n) != 0 || arg[2 + n] != '=')
        return nullptr;
    return arg + 2 + n + 1;
}

} // namespace

std::uint64_t
Options::positionalOr(std::size_t i, std::uint64_t fallback) const
{
    if (i >= positional.size())
        return fallback;
    std::uint64_t v = 0;
    return parseU64(positional[i], v) ? v : fallback;
}

bool
Options::takeFlag(const std::string& name, std::string& value)
{
    for (auto it = unknown.begin(); it != unknown.end(); ++it) {
        if (const char* v = flagValue(it->c_str(), name.c_str())) {
            value = v;
            unknown.erase(it);
            return true;
        }
    }
    return false;
}

bool
Options::takeSwitch(const std::string& name)
{
    const std::string flag = "--" + name;
    for (auto it = unknown.begin(); it != unknown.end(); ++it) {
        if (*it == flag) {
            unknown.erase(it);
            return true;
        }
    }
    return false;
}

bool
Options::takeU64(const std::string& name, std::uint64_t& out)
{
    std::string value;
    if (!takeFlag(name, value) || parseU64(value, out))
        return true;
    malformed.push_back("--" + name + "=" + value);
    return false;
}

bool
parseU64(const std::string& text, std::uint64_t& out)
{
    if (text.empty() || text[0] == '-' || text[0] == '+')
        return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

bool
parseU64List(const std::string& text, std::vector<std::uint64_t>& out)
{
    if (text.empty())
        return false;
    std::vector<std::uint64_t> vals;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        std::size_t comma = text.find(',', begin);
        if (comma == std::string::npos)
            comma = text.size();
        std::uint64_t v = 0;
        if (!parseU64(text.substr(begin, comma - begin), v))
            return false;
        vals.push_back(v);
        begin = comma + 1;
    }
    out = std::move(vals);
    return true;
}

Options
parse(int argc, char** argv)
{
    Options opt;

    // A malformed numeric value keeps the default and is reported:
    // silently treating "--jobs=abc" as 0 would silently change the
    // thread count.
    auto setU64 = [&opt](const std::string& flag, const char* text,
                         std::uint64_t& field) {
        std::uint64_t v = 0;
        if (parseU64(text, v))
            field = v;
        else
            opt.malformed.push_back(flag + "=" + text);
    };
    auto setInt = [&opt](const std::string& flag, const char* text,
                         int& field) {
        std::uint64_t v = 0;
        if (parseU64(text, v) && v <= 1u << 20)
            field = static_cast<int>(v);
        else
            opt.malformed.push_back(flag + "=" + text);
    };

    // parse() runs once at startup, before any StudyRunner thread
    // exists, so the non-reentrant getenv is race-free here.
    // NOLINTBEGIN(concurrency-mt-unsafe)
    if (const char* env = std::getenv("CCNUMA_TRACE"))
        opt.traceFile = env;
    if (const char* env = std::getenv("CCNUMA_JSON"))
        opt.jsonFile = env;
    if (const char* env = std::getenv("CCNUMA_JOBS"))
        setInt("CCNUMA_JOBS", env, opt.jobs);
    if (const char* env = std::getenv("CCNUMA_SEED"))
        setU64("CCNUMA_SEED", env, opt.seed);
    if (const char* env = std::getenv("CCNUMA_EPOCH"))
        setU64("CCNUMA_EPOCH", env, opt.epochCycles);
    if (const char* env = std::getenv("CCNUMA_PROTOCOL"))
        opt.protocol = env;
    if (const char* env = std::getenv("CCNUMA_DIR"))
        opt.dirFormat = env;
    // NOLINTEND(concurrency-mt-unsafe)

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (const char* trace = flagValue(arg, "trace"))
            opt.traceFile = trace;
        else if (const char* json = flagValue(arg, "json"))
            opt.jsonFile = json;
        else if (const char* jobs = flagValue(arg, "jobs"))
            setInt("--jobs", jobs, opt.jobs);
        else if (const char* seed = flagValue(arg, "seed"))
            setU64("--seed", seed, opt.seed);
        else if (const char* epoch = flagValue(arg, "epoch-cycles"))
            setU64("--epoch-cycles", epoch, opt.epochCycles);
        else if (const char* proto = flagValue(arg, "protocol"))
            opt.protocol = proto;
        else if (const char* dir = flagValue(arg, "dir-format"))
            opt.dirFormat = dir;
        else if (std::strncmp(arg, "--", 2) == 0)
            opt.unknown.emplace_back(arg);
        else
            opt.positional.emplace_back(arg);
    }
    return opt;
}

bool
applyMachine(Options& opt, sim::MachineConfig& cfg)
{
    bool ok = true;
    if (!opt.protocol.empty() && !cfg.protocol.parse(opt.protocol)) {
        opt.malformed.push_back("--protocol=" + opt.protocol +
                                " (want mesi|moesi|dragon)");
        ok = false;
    }
    if (!opt.dirFormat.empty() && !cfg.dirFormat.parse(opt.dirFormat)) {
        opt.malformed.push_back("--dir-format=" + opt.dirFormat +
                                " (want fullbv|coarse:K|ptr:N)");
        ok = false;
    }
    return ok;
}

bool
warnUnknown(const Options& opt)
{
    for (const std::string& f : opt.malformed)
        std::fprintf(stderr,
                     "warning: malformed value in %s "
                     "(keeping the default)\n",
                     f.c_str());
    for (const std::string& f : opt.unknown)
        std::fprintf(stderr,
                     "warning: unknown flag %s (known: --trace=FILE "
                     "--json=FILE --jobs=N --seed=N "
                     "--epoch-cycles=N --protocol=P "
                     "--dir-format=F)\n",
                     f.c_str());
    return opt.unknown.empty() && opt.malformed.empty();
}

} // namespace ccnuma::core::cli
