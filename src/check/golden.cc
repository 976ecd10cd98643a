#include "check/golden.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/registry.hh"
#include "check/json.hh"
#include "core/study.hh"
#include "sim/config.hh"

namespace ccnuma::check {

namespace {

/// Relative tolerance for the derived speedup double (absorbs decimal
/// formatting round-trips; everything else compares exactly).
constexpr double kSpeedupRelEps = 1e-9;

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
doublesClose(double a, double b)
{
    const double scale = std::fmax(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= kSpeedupRelEps * std::fmax(scale, 1.0);
}

struct CounterField {
    const char* key;
    std::uint64_t GoldenEntry::* member;
};

constexpr CounterField kCounters[] = {
    {"loads", &GoldenEntry::loads},
    {"stores", &GoldenEntry::stores},
    {"l2Hits", &GoldenEntry::l2Hits},
    {"missLocal", &GoldenEntry::missLocal},
    {"missRemoteClean", &GoldenEntry::missRemoteClean},
    {"missRemoteDirty", &GoldenEntry::missRemoteDirty},
    {"upgrades", &GoldenEntry::upgrades},
    {"invalsSent", &GoldenEntry::invalsSent},
    {"writebacks", &GoldenEntry::writebacks},
    {"lockAcquires", &GoldenEntry::lockAcquires},
    {"barriersPassed", &GoldenEntry::barriersPassed},
};

} // namespace

std::uint64_t
goldenSize(const std::string& app)
{
    return apps::goldenSize(app);
}

GoldenSnapshot
computeGolden(int procs)
{
    GoldenSnapshot snap;
    snap.procs = procs;
    const sim::MachineConfig cfg = sim::MachineConfig::origin2000(procs);
    for (const std::string& name : apps::listApps()) {
        const std::uint64_t size = apps::goldenSize(name);
        const core::Measurement m = core::measure(
            cfg, [&] { return apps::makeApp(name, size); });
        GoldenEntry e;
        e.name = name;
        e.size = size;
        e.seqTime = m.seqTime;
        e.parTime = m.parTime;
        e.speedup = m.speedup();
        const sim::ProcCounters c = m.par.totals();
        e.loads = c.loads;
        e.stores = c.stores;
        e.l2Hits = c.l2Hits;
        e.missLocal = c.missLocal;
        e.missRemoteClean = c.missRemoteClean;
        e.missRemoteDirty = c.missRemoteDirty;
        e.upgrades = c.upgrades;
        e.invalsSent = c.invalsSent;
        e.writebacks = c.writebacks;
        e.lockAcquires = c.lockAcquires;
        e.barriersPassed = c.barriersPassed;
        snap.entries.push_back(std::move(e));
    }
    return snap;
}

std::string
toJson(const GoldenSnapshot& snap)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"ccnuma-golden-metrics\",\n";
    os << "  \"version\": " << snap.version << ",\n";
    os << "  \"procs\": " << snap.procs << ",\n";
    os << "  \"apps\": [\n";
    for (std::size_t i = 0; i < snap.entries.size(); ++i) {
        const GoldenEntry& e = snap.entries[i];
        os << "    {\"name\": \"" << e.name << "\", \"size\": " << e.size
           << ",\n";
        os << "     \"seqTime\": " << e.seqTime
           << ", \"parTime\": " << e.parTime
           << ", \"speedup\": " << fmtDouble(e.speedup) << ",\n";
        os << "     \"counters\": {";
        bool first = true;
        for (const CounterField& f : kCounters) {
            if (!first)
                os << ", ";
            first = false;
            os << '"' << f.key << "\": " << e.*(f.member);
        }
        os << "}}";
        os << (i + 1 < snap.entries.size() ? ",\n" : "\n");
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

bool
loadGoldenFile(const std::string& path, GoldenSnapshot& out,
               std::string& err)
{
    const json::ParseResult pr = json::parseFile(path);
    if (!pr.ok) {
        err = path + ": " + pr.error;
        return false;
    }
    const json::Value& root = pr.root;
    if (!root.isObject()) {
        err = path + ": root is not an object";
        return false;
    }
    const json::Value* schema = root.find("schema");
    if (!schema || !schema->isString() ||
        schema->str != "ccnuma-golden-metrics") {
        err = path + ": not a ccnuma-golden-metrics file";
        return false;
    }
    // Every count is a non-negative integer that fits in a uint64: a
    // sign, a fraction, an exponent or an overflow is a corrupt file.
    const auto count = [&](const json::Value* v, const std::string& what,
                           std::uint64_t& n) {
        if (v && v->asCount(n))
            return true;
        err = path + ": " + what + " is missing or not a count";
        return false;
    };
    std::uint64_t version = 0;
    if (!count(root.find("version"), "version", version))
        return false;
    if (version != 1) {
        err = path + ": unsupported version " + std::to_string(version);
        return false;
    }
    out.version = 1;
    std::uint64_t procs = 0;
    if (!count(root.find("procs"), "procs", procs))
        return false;
    out.procs = static_cast<int>(procs);
    const json::Value* apps = root.find("apps");
    if (!apps || !apps->isArray()) {
        err = path + ": missing apps array";
        return false;
    }
    out.entries.clear();
    for (const json::Value& v : apps->arr) {
        const json::Value* name = v.find("name");
        const json::Value* spd = v.find("speedup");
        const json::Value* counters = v.find("counters");
        if (!name || !name->isString() || !spd || !spd->isNumber() ||
            !counters || !counters->isObject()) {
            err = path + ": malformed app entry";
            return false;
        }
        GoldenEntry e;
        e.name = name->str;
        const std::string app = "app " + e.name + ": ";
        if (!count(v.find("size"), app + "size", e.size) ||
            !count(v.find("seqTime"), app + "seqTime", e.seqTime) ||
            !count(v.find("parTime"), app + "parTime", e.parTime))
            return false;
        e.speedup = spd->asDouble();
        for (const CounterField& f : kCounters)
            if (!count(counters->find(f.key), app + "counter " + f.key,
                       e.*(f.member)))
                return false;
        out.entries.push_back(std::move(e));
    }
    return true;
}

bool
writeGoldenFile(const std::string& path, const GoldenSnapshot& snap,
                std::string& err)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        err = "cannot open " + path + " for writing";
        return false;
    }
    f << toJson(snap);
    f.flush();
    if (!f) {
        err = "write to " + path + " failed";
        return false;
    }
    return true;
}

std::vector<std::string>
diffGolden(const GoldenSnapshot& baseline, const GoldenSnapshot& current)
{
    std::vector<std::string> diffs;
    if (baseline.procs != current.procs)
        diffs.push_back("machine size: baseline procs=" +
                        std::to_string(baseline.procs) + ", current=" +
                        std::to_string(current.procs));

    auto findIn = [](const GoldenSnapshot& s,
                     const std::string& name) -> const GoldenEntry* {
        for (const GoldenEntry& e : s.entries)
            if (e.name == name)
                return &e;
        return nullptr;
    };

    for (const GoldenEntry& b : baseline.entries) {
        const GoldenEntry* c = findIn(current, b.name);
        if (!c) {
            diffs.push_back(b.name +
                            ": present in baseline, missing from "
                            "current run");
            continue;
        }
        auto intDiff = [&](const char* what, std::uint64_t bv,
                           std::uint64_t cv) {
            if (bv != cv)
                diffs.push_back(b.name + ": " + what + " " +
                                std::to_string(cv) + " != baseline " +
                                std::to_string(bv));
        };
        intDiff("size", b.size, c->size);
        intDiff("seqTime", b.seqTime, c->seqTime);
        intDiff("parTime", b.parTime, c->parTime);
        if (!doublesClose(b.speedup, c->speedup))
            diffs.push_back(b.name + ": speedup " +
                            fmtDouble(c->speedup) + " != baseline " +
                            fmtDouble(b.speedup));
        for (const CounterField& f : kCounters)
            intDiff(f.key, b.*(f.member), c->*(f.member));
    }
    for (const GoldenEntry& c : current.entries)
        if (!findIn(baseline, c.name))
            diffs.push_back(c.name +
                            ": new app missing from baseline (re-bless "
                            "tests/golden)");
    return diffs;
}

} // namespace ccnuma::check
