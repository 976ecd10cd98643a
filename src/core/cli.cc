#include "core/cli.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/config.hh"

namespace ccnuma::core::cli {

namespace {

bool
isMachine(const Arg& a)
{
    return std::holds_alternative<sim::MachineConfig*>(a.target);
}

/// The entry that declares --`name`, or nullptr.
const Arg*
findFlag(const Command& cmd, const std::string& name)
{
    for (const Arg& a : cmd.flags)
        if (isMachine(a) ? name == "protocol" || name == "dir-format"
                         : a.name.substr(0, a.name.find('=')) == name)
            return &a;
    return nullptr;
}

/// Store `value` (of --`flag`, or of a positional) into a's target;
/// false, with the target untouched, when it does not parse.
bool
store(const Arg& a, const std::string& flag, const std::string& value)
{
    if (auto* s = std::get_if<std::string*>(&a.target)) {
        **s = value;
        return true;
    }
    if (auto* u = std::get_if<std::uint64_t*>(&a.target))
        return parseU64(value, **u);
    if (auto* i = std::get_if<int*>(&a.target)) {
        std::uint64_t v = 0;
        if (!parseU64(value, v) || v > INT_MAX)
            return false;
        **i = static_cast<int>(v);
        return true;
    }
    if (auto* l = std::get_if<std::vector<int>*>(&a.target)) {
        std::vector<std::uint64_t> vals;
        if (!parseU64List(value, vals) ||
            std::any_of(vals.begin(), vals.end(),
                        [](std::uint64_t v) { return v > INT_MAX; }))
            return false;
        (*l)->assign(vals.begin(), vals.end());
        return true;
    }
    if (auto* v = std::get_if<std::vector<std::string>*>(&a.target)) {
        (*v)->push_back(value);
        return true;
    }
    if (auto* m = std::get_if<sim::MachineConfig*>(&a.target))
        return flag == "protocol" ? (*m)->protocol.parse(value)
                                  : (*m)->dirFormat.parse(value);
    return false; // a switch takes no value
}

} // namespace

std::string
usage(const Command& cmd)
{
    std::string out = "usage: " + cmd.name + " [flags]";
    std::vector<std::pair<std::string, std::string>> rows;
    for (const Arg& a : cmd.positionals) {
        const bool rest =
            std::holds_alternative<std::vector<std::string>*>(a.target);
        out += " [" + a.name + (rest ? "...]" : "]");
        rows.emplace_back(a.name, a.help);
    }
    out += "\n";
    for (std::size_t pos = 0; pos < cmd.summary.size();) {
        const std::size_t nl = std::min(cmd.summary.find('\n', pos),
                                        cmd.summary.size());
        out += "  " + cmd.summary.substr(pos, nl - pos) + "\n";
        pos = nl + 1;
    }
    for (const Arg& a : cmd.flags) {
        if (!isMachine(a)) {
            rows.emplace_back("--" + a.name, a.help);
            continue;
        }
        rows.emplace_back("--protocol=P",
                          "coherence protocol: mesi | moesi | dragon");
        rows.emplace_back("--dir-format=F",
                          "directory sharer format: fullbv | coarse:K | "
                          "ptr:N");
    }
    rows.emplace_back("-h, --help", "print this usage");
    std::size_t width = 0;
    for (const auto& row : rows)
        width = std::max(width, row.first.size());
    out += "\n";
    for (const auto& [left, help] : rows)
        out += "  " + left + std::string(width - left.size() + 2, ' ') +
               help + "\n";
    if (!cmd.footer.empty())
        out += "\n" + cmd.footer;
    return out;
}

int
usageError(const Command& cmd, const std::string& what)
{
    std::fprintf(stderr, "%s: %s\n%s", cmd.name.c_str(), what.c_str(),
                 usage(cmd).c_str());
    return 2;
}

std::optional<int>
parse(const Command& cmd, int argc, char** argv)
{
    std::vector<std::string> errors;
    std::size_t nextPositional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h" || (i == 1 && arg == "help")) {
            std::printf("%s", usage(cmd).c_str());
            return 0;
        }
        if (arg.rfind("--", 0) != 0) {
            if (nextPositional == cmd.positionals.size()) {
                errors.push_back("unexpected argument '" + arg + "'");
                continue;
            }
            const Arg& a = cmd.positionals[nextPositional];
            if (!std::holds_alternative<std::vector<std::string>*>(
                    a.target))
                ++nextPositional;
            if (!store(a, a.name, arg))
                errors.push_back("malformed " + a.name + " '" + arg +
                                 "'");
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(2, eq - 2);
        const Arg* a = findFlag(cmd, name);
        const bool isSwitch = a && std::holds_alternative<bool*>(a->target);
        if (!a)
            errors.push_back("unknown flag " + arg);
        else if (isSwitch && eq != std::string::npos)
            errors.push_back("--" + name + " takes no value");
        else if (isSwitch)
            *std::get<bool*>(a->target) = true;
        else if (eq == std::string::npos)
            errors.push_back("--" + name + " needs a value");
        else if (!store(*a, name, arg.substr(eq + 1)))
            errors.push_back("malformed value in " + arg);
    }
    if (errors.empty())
        return std::nullopt;
    for (const std::string& e : errors)
        std::fprintf(stderr, "%s: %s\n", cmd.name.c_str(), e.c_str());
    std::fprintf(stderr, "%s", usage(cmd).c_str());
    return 2;
}

bool
parseU64(const std::string& text, std::uint64_t& out)
{
    // strtoull would skip leading blanks and negate a '-'.
    if (text.empty() || text[0] < '0' || text[0] > '9')
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
    std::vector<std::uint64_t> vals;
    for (std::size_t begin = 0; begin <= text.size();) {
        const std::size_t comma =
            std::min(text.find(',', begin), text.size());
        if (!parseU64(text.substr(begin, comma - begin),
                      vals.emplace_back()))
            return false;
        begin = comma + 1;
    }
    out = std::move(vals);
    return true;
}

} // namespace ccnuma::core::cli
