#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
nowS()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

int
Spans::add(std::string name, double start, double end, int parent,
           std::string id)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(name), start, end, parent, std::move(id)});
    return static_cast<int>(spans_.size()) - 1;
}

double
Spans::selfTotal(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> childCover(spans_.size(), 0.0);
    // Children of one parent never overlap (each is one call on the
    // parent's thread), so their durations add up to the covered part.
    for (const Span& sp : spans_)
        if (sp.parent >= 0)
            childCover[static_cast<std::size_t>(sp.parent)] +=
                sp.end - sp.start;
    double s = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            s += spans_[i].end - spans_[i].start - childCover[i];
    return s;
}

std::size_t
Spans::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

bool
Spans::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"schema\":\"perfbench-spans-v1\",\"spans\":[\n";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& sp = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "\"start\":%.9f,\"end\":%.9f,\"parent\":%d", sp.start,
                      sp.end, sp.parent);
        out << "{\"i\":" << i << ",\"name\":\"" << sp.name << "\","
            << buf << ",\"id\":\"" << sp.id << "\"}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
fnv1aHex(const std::string& s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::map<std::string, std::uint64_t>
pinCounters(const sim::RunResult& r)
{
    const sim::ProcCounters c = r.totals();
    return {
        {"simCycles", static_cast<std::uint64_t>(r.time)},
        {"loads", c.loads},
        {"stores", c.stores},
        {"l2Hits", c.l2Hits},
        {"missLocal", c.missLocal},
        {"missRemoteClean", c.missRemoteClean},
        {"missRemoteDirty", c.missRemoteDirty},
        {"upgrades", c.upgrades},
        {"invalsSent", c.invalsSent},
        {"invalsReceived", c.invalsReceived},
        {"writebacks", c.writebacks},
        {"prefetchesIssued", c.prefetchesIssued},
        {"lockAcquires", c.lockAcquires},
        {"lockContended", c.lockContended},
        {"barriersPassed", c.barriersPassed},
        {"pageMigrations", r.pageMigrations},
    };
}

std::map<std::string, std::string>
asPinFields(const std::map<std::string, std::uint64_t>& c)
{
    std::map<std::string, std::string> out;
    for (const auto& [k, v] : c)
        out[k] = std::to_string(v);
    return out;
}

bool
Pins::load(const std::string& path, std::string& error)
{
    check::json::ParseResult pr = check::json::parseFile(path);
    if (!pr.ok || !pr.root.isObject()) {
        error = pr.ok ? "top level is not an object" : pr.error;
        return false;
    }
    root_ = std::move(pr.root);
    return true;
}

bool
Pins::check(const std::string& section, const std::string& key,
            const std::map<std::string, std::string>& got)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (recording_) {
        recorded_[section][key] = got;
        return true;
    }
    std::string why;
    const check::json::Value* sec = root_.find(section);
    const check::json::Value* entry = sec ? sec->find(key) : nullptr;
    if (!entry || !entry->isObject()) {
        why = "no pinned entry";
    } else if (entry->obj.size() != got.size()) {
        why = "pinned " + std::to_string(entry->obj.size()) +
              " fields, measured " + std::to_string(got.size());
    } else {
        for (const auto& [field, value] : got) {
            const check::json::Value* p = entry->find(field);
            if (!p || !p->isString() || p->str != value) {
                why = field + " = " + value + ", pinned " +
                      (p && p->isString() ? p->str : "(missing)");
                break;
            }
        }
    }
    if (!why.empty() && mismatch_.empty())
        mismatch_ = section + "/" + key + ": " + why;
    return why.empty();
}

std::string
Pins::pinned(const std::string& section, const std::string& key,
             const std::string& field) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const check::json::Value* sec = root_.find(section);
    const check::json::Value* entry = sec ? sec->find(key) : nullptr;
    const check::json::Value* v = entry ? entry->find(field) : nullptr;
    return v && v->isString() ? v->str : "0";
}

namespace {

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

bool
Pins::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n";
    std::size_t si = 0;
    for (const auto& [section, entries] : recorded_) {
        out << "  " << jsonString(section) << ": {\n";
        std::size_t ei = 0;
        for (const auto& [key, fields] : entries) {
            out << "    " << jsonString(key) << ": {";
            std::size_t fi = 0;
            for (const auto& [f, v] : fields)
                out << jsonString(f) << ": " << jsonString(v)
                    << (++fi < fields.size() ? ", " : "");
            out << "}" << (++ei < entries.size() ? ",\n" : "\n");
        }
        out << "  }" << (++si < recorded_.size() ? ",\n" : "\n");
    }
    out << "}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
