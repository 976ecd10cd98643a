#include "apps/trace.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace ccnuma::apps {

namespace {

/// Mnemonic for one op line; the parse table below must agree.
const char*
opMnemonic(sim::OpKind k)
{
    switch (k) {
    case sim::OpKind::Read: return "r";
    case sim::OpKind::Write: return "w";
    case sim::OpKind::Busy: return "b";
    case sim::OpKind::Prefetch: return "pf";
    case sim::OpKind::FetchOp: return "fo";
    case sim::OpKind::Rmw: return "m";
    case sim::OpKind::Checkpoint: return "y";
    case sim::OpKind::Barrier: return "B";
    case sim::OpKind::Acquire: return "L";
    case sim::OpKind::Release: return "U";
    }
    return "?";
}

bool
opHasArg(sim::OpKind k)
{
    return k != sim::OpKind::Checkpoint;
}

void
appendU64(std::string& out, std::uint64_t v)
{
    char buf[24];
    auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    out.append(buf, p);
}

/// Splits trace text into lines and whitespace-separated tokens,
/// tracking line numbers for error messages. Tabs are not accepted —
/// the canonical format uses single spaces and serialize() is the
/// only sanctioned writer.
struct Cursor {
    const std::string& text;
    std::size_t pos = 0;
    int line = 0;

    bool atEnd() const { return pos >= text.size(); }

    /// Next non-empty line as tokens; empty vector means end of input.
    std::vector<std::string_view>
    nextLine()
    {
        std::vector<std::string_view> toks;
        while (toks.empty() && !atEnd()) {
            std::size_t eol = text.find('\n', pos);
            if (eol == std::string::npos)
                eol = text.size();
            ++line;
            std::string_view l(text.data() + pos, eol - pos);
            pos = eol + 1;
            std::size_t i = 0;
            while (i < l.size()) {
                while (i < l.size() && l[i] == ' ')
                    ++i;
                std::size_t j = i;
                while (j < l.size() && l[j] != ' ')
                    ++j;
                if (j > i)
                    toks.push_back(l.substr(i, j - i));
                i = j;
            }
        }
        return toks;
    }
};

bool
parseU64Tok(std::string_view tok, std::uint64_t& out)
{
    if (tok.empty())
        return false;
    auto [p, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), out);
    return ec == std::errc{} && p == tok.data() + tok.size();
}

TraceParseResult
fail(int line, std::string msg)
{
    TraceParseResult r;
    r.error = "line " + std::to_string(line) + ": " + std::move(msg);
    return r;
}

/// OpRecorder that captures into a Trace (see recordTrace()).
class TraceBuilder final : public sim::OpRecorder {
  public:
    explicit TraceBuilder(Trace& t) : t_(t) {}

    void
    onAlloc(std::uint64_t bytes) override
    {
        t_.setup.push_back({Trace::Setup::Kind::Alloc, bytes, 0, 0});
    }
    void
    onBarrierCreate(int participants) override
    {
        t_.setup.push_back({Trace::Setup::Kind::Barrier,
                            static_cast<std::uint64_t>(participants), 0,
                            0});
    }
    void
    onLockCreate() override
    {
        t_.setup.push_back({Trace::Setup::Kind::Lock, 0, 0, 0});
    }
    void
    onPlace(sim::Addr addr, std::uint64_t bytes, sim::NodeId node) override
    {
        requirePreRun("place");
        t_.setup.push_back({Trace::Setup::Kind::Place, addr, bytes,
                            static_cast<std::uint64_t>(node)});
    }
    void
    onPlaceAcross(sim::Addr addr, std::uint64_t bytes) override
    {
        requirePreRun("placeAcrossProcs");
        t_.setup.push_back(
            {Trace::Setup::Kind::PlaceAcross, addr, bytes, 0});
    }
    void
    onOp(sim::ProcId p, sim::OpKind kind, std::uint64_t arg) override
    {
        running_ = true;
        t_.ops.at(static_cast<std::size_t>(p)).push_back({kind, arg});
    }

  private:
    void
    requirePreRun(const char* what) const
    {
        // Replay hoists all setup events before the op streams, which
        // is address- and behavior-preserving for allocations and
        // barrier/lock creation but not for page placement (a mid-run
        // place would change the homes later accesses see).
        if (running_)
            throw std::logic_error(
                std::string("trace recording does not support mid-run ") +
                what);
    }

    Trace& t_;
    bool running_ = false;
};

} // namespace

std::uint64_t
Trace::totalOps() const
{
    std::uint64_t n = 0;
    for (const auto& stream : ops)
        n += stream.size();
    return n;
}

std::string
Trace::serialize() const
{
    std::string out;
    out.reserve(64 + setup.size() * 16 + totalOps() * 12);
    out += "ccnuma-trace v1\n";
    if (!app.empty()) {
        out += "app ";
        out += app;
        out += '\n';
    }
    out += "procs ";
    appendU64(out, static_cast<std::uint64_t>(procs));
    out += '\n';
    for (const Setup& s : setup) {
        switch (s.kind) {
        case Setup::Kind::Alloc:
            out += "alloc ";
            appendU64(out, s.a);
            break;
        case Setup::Kind::Barrier:
            out += "barrier ";
            appendU64(out, s.a);
            break;
        case Setup::Kind::Lock:
            out += "lock";
            break;
        case Setup::Kind::Place:
            out += "place ";
            appendU64(out, s.a);
            out += ' ';
            appendU64(out, s.b);
            out += ' ';
            appendU64(out, s.c);
            break;
        case Setup::Kind::PlaceAcross:
            out += "placeacross ";
            appendU64(out, s.a);
            out += ' ';
            appendU64(out, s.b);
            break;
        }
        out += '\n';
    }
    for (std::size_t p = 0; p < ops.size(); ++p) {
        out += "ops ";
        appendU64(out, p);
        out += ' ';
        appendU64(out, ops[p].size());
        out += '\n';
        for (const TraceOp& op : ops[p]) {
            out += opMnemonic(op.kind);
            if (opHasArg(op.kind)) {
                out += ' ';
                appendU64(out, op.arg);
            }
            out += '\n';
        }
    }
    out += "end\n";
    return out;
}

std::string
Trace::hashHex() const
{
    const std::string text = serialize();
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    for (const char c : text) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull; // FNV-1a prime
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(buf, 16);
}

TraceParseResult
parseTrace(const std::string& text)
{
    Cursor cur{text};

    auto toks = cur.nextLine();
    if (toks.size() != 2 || toks[0] != "ccnuma-trace" || toks[1] != "v1")
        return fail(cur.line ? cur.line : 1,
                    "expected header 'ccnuma-trace v1'");

    TraceParseResult r;
    Trace& t = r.trace;

    // Optional provenance label, then the mandatory processor count.
    toks = cur.nextLine();
    if (toks.size() == 2 && toks[0] == "app") {
        t.app = std::string(toks[1]);
        toks = cur.nextLine();
    }
    std::uint64_t procs = 0;
    if (toks.size() != 2 || toks[0] != "procs" ||
        !parseU64Tok(toks[1], procs) || procs < 1 || procs > 4096)
        return fail(cur.line, "expected 'procs N' with 1 <= N <= 4096");
    t.procs = static_cast<int>(procs);
    t.ops.resize(procs);

    // Setup events until the first 'ops' block.
    std::uint64_t heapBytes = 0;
    for (toks = cur.nextLine();; toks = cur.nextLine()) {
        if (toks.empty())
            return fail(cur.line, "unexpected end of input (missing 'end')");
        if (toks[0] == "ops")
            break;
        Trace::Setup s;
        if (toks[0] == "alloc" && toks.size() == 2 &&
            parseU64Tok(toks[1], s.a)) {
            s.kind = Trace::Setup::Kind::Alloc;
            if (s.a > kMaxTraceHeapBytes - heapBytes)
                return fail(cur.line, "allocations exceed the " +
                                          std::to_string(
                                              kMaxTraceHeapBytes) +
                                          "-byte trace heap cap");
            heapBytes += s.a;
        } else if (toks[0] == "barrier" && toks.size() == 2 &&
                   parseU64Tok(toks[1], s.a)) {
            s.kind = Trace::Setup::Kind::Barrier;
        } else if (toks[0] == "lock" && toks.size() == 1) {
            s.kind = Trace::Setup::Kind::Lock;
        } else if (toks[0] == "place" && toks.size() == 4 &&
                   parseU64Tok(toks[1], s.a) && parseU64Tok(toks[2], s.b) &&
                   parseU64Tok(toks[3], s.c)) {
            s.kind = Trace::Setup::Kind::Place;
        } else if (toks[0] == "placeacross" && toks.size() == 3 &&
                   parseU64Tok(toks[1], s.a) && parseU64Tok(toks[2], s.b)) {
            s.kind = Trace::Setup::Kind::PlaceAcross;
        } else {
            return fail(cur.line, "bad setup line '" +
                                      std::string(toks[0]) + "'");
        }
        t.setup.push_back(s);
    }

    // One 'ops <proc> <count>' block per processor, ascending.
    for (std::uint64_t expect = 0; expect < procs; ++expect) {
        std::uint64_t p = 0;
        std::uint64_t count = 0;
        if (toks.size() != 3 || toks[0] != "ops" ||
            !parseU64Tok(toks[1], p) || !parseU64Tok(toks[2], count))
            return fail(cur.line, "expected 'ops <proc> <count>'");
        if (p != expect)
            return fail(cur.line, "expected ops block for processor " +
                                      std::to_string(expect) + ", got " +
                                      std::to_string(p));
        auto& stream = t.ops[p];
        std::uint64_t busyCycles = 0;
        // `count` is untrusted input; the shortest op line ("y\n") is
        // two bytes, so the remaining text bounds how many ops can
        // actually follow. Clamping keeps an absurd declared count from
        // turning the reserve into std::length_error/bad_alloc — it
        // becomes a plain "unexpected end of input" parse error below.
        const std::uint64_t maxPossible =
            cur.pos < text.size() ? (text.size() - cur.pos) / 2 : 0;
        stream.reserve(
            static_cast<std::size_t>(std::min(count, maxPossible)));
        for (std::uint64_t i = 0; i < count; ++i) {
            toks = cur.nextLine();
            if (toks.empty())
                return fail(cur.line,
                            "unexpected end of input inside ops block");
            TraceOp op;
            bool needArg = true;
            if (toks[0] == "r") {
                op.kind = sim::OpKind::Read;
            } else if (toks[0] == "w") {
                op.kind = sim::OpKind::Write;
            } else if (toks[0] == "b") {
                op.kind = sim::OpKind::Busy;
            } else if (toks[0] == "pf") {
                op.kind = sim::OpKind::Prefetch;
            } else if (toks[0] == "fo") {
                op.kind = sim::OpKind::FetchOp;
            } else if (toks[0] == "m") {
                op.kind = sim::OpKind::Rmw;
            } else if (toks[0] == "y") {
                op.kind = sim::OpKind::Checkpoint;
                needArg = false;
            } else if (toks[0] == "B") {
                op.kind = sim::OpKind::Barrier;
            } else if (toks[0] == "L") {
                op.kind = sim::OpKind::Acquire;
            } else if (toks[0] == "U") {
                op.kind = sim::OpKind::Release;
            } else {
                return fail(cur.line,
                            "unknown op '" + std::string(toks[0]) + "'");
            }
            if (needArg) {
                if (toks.size() != 2 || !parseU64Tok(toks[1], op.arg))
                    return fail(cur.line, "op '" + std::string(toks[0]) +
                                              "' needs one number");
            } else if (toks.size() != 1) {
                return fail(cur.line, "op 'y' takes no argument");
            }
            if (op.kind == sim::OpKind::Busy) {
                if (op.arg > kMaxTraceBusyCycles - busyCycles)
                    return fail(cur.line,
                                "busy cycles exceed the " +
                                    std::to_string(kMaxTraceBusyCycles) +
                                    "-cycle trace busy cap");
                busyCycles += op.arg;
            }
            stream.push_back(op);
        }
        toks = cur.nextLine();
    }

    if (toks.size() != 1 || toks[0] != "end")
        return fail(cur.line, "expected 'end'");
    if (!cur.nextLine().empty())
        return fail(cur.line, "trailing content after 'end'");

    r.ok = true;
    return r;
}

RecordedTrace
recordTrace(const sim::MachineConfig& cfg, App& app)
{
    RecordedTrace out;
    out.trace.procs = cfg.numProcs;
    out.trace.ops.resize(static_cast<std::size_t>(cfg.numProcs));

    TraceBuilder rec(out.trace);
    sim::Machine m(cfg);
    m.attachOpRecorder(&rec);
    app.setup(m);
    out.run = m.run(app.program());
    out.trace.app = app.name();
    return out;
}

TraceReplayApp::TraceReplayApp(Trace t) : t_(std::move(t))
{
    name_ = "trace:" + (t_.app.empty() ? t_.hashHex() : t_.app);
}

std::string
TraceReplayApp::name() const
{
    return name_;
}

namespace {

/// Whether [addr, addr + bytes) lies in the heap [kHeapBase, end).
bool
inHeap(std::uint64_t addr, std::uint64_t bytes, sim::Addr end)
{
    return addr >= sim::Machine::kHeapBase && addr < end &&
           bytes <= end - addr;
}

[[noreturn]] void
outsideHeap(const std::string& what, sim::Addr end)
{
    throw std::invalid_argument(
        "trace " + what + " outside the heap [" +
        std::to_string(sim::Machine::kHeapBase) + ", " +
        std::to_string(end) + ")");
}

/// Check a place/placeacross range against the heap allocated so far.
void
requirePlaceInHeap(const char* what, const Trace::Setup& s, sim::Addr end)
{
    if (!inHeap(s.a, s.b, end))
        outsideHeap(std::string(what) + " of " + std::to_string(s.b) +
                        " bytes at " + std::to_string(s.a),
                    end);
}

bool
opIsAddress(sim::OpKind k)
{
    return k == sim::OpKind::Read || k == sim::OpKind::Write ||
           k == sim::OpKind::Prefetch || k == sim::OpKind::FetchOp ||
           k == sim::OpKind::Rmw;
}

} // namespace

void
TraceReplayApp::setup(sim::Machine& m)
{
    if (m.config().numProcs != t_.procs)
        throw std::invalid_argument(
            "trace recorded for " + std::to_string(t_.procs) +
            " processors, machine has " +
            std::to_string(m.config().numProcs));
    // Placements come after the allocations they cover in any recorded
    // trace, so each is checked against the heap allocated so far.
    for (const Trace::Setup& s : t_.setup) {
        switch (s.kind) {
        case Trace::Setup::Kind::Alloc:
            m.alloc(s.a);
            break;
        case Trace::Setup::Kind::Barrier:
            barriers_.push_back(
                m.barrierCreate(static_cast<int>(s.a)));
            break;
        case Trace::Setup::Kind::Lock:
            locks_.push_back(m.lockCreate());
            break;
        case Trace::Setup::Kind::Place:
            requirePlaceInHeap("place", s, m.heapEnd());
            // Narrow only values that fit; Machine::place rejects
            // every node outside the machine.
            m.place(s.a, s.b,
                    static_cast<sim::NodeId>(std::min<std::uint64_t>(
                        s.c, std::numeric_limits<sim::NodeId>::max())));
            break;
        case Trace::Setup::Kind::PlaceAcross:
            requirePlaceInHeap("placeacross", s, m.heapEnd());
            m.placeAcrossProcs(s.a, s.b);
            break;
        }
    }
    for (const auto& stream : t_.ops)
        for (const TraceOp& op : stream)
            if (opIsAddress(op.kind) && !inHeap(op.arg, 1, m.heapEnd()))
                outsideHeap(std::string("op '") + opMnemonic(op.kind) +
                                "' address " + std::to_string(op.arg),
                            m.heapEnd());
}

sim::Machine::Program
TraceReplayApp::program()
{
    // The coroutine captures `this`; the replay app must outlive the
    // run, like every other App. Op arguments index barriers_/locks_
    // through .at(): a syntactically valid trace with a dangling
    // index fails *inside* the simulation — exactly the mid-run
    // failure mode the server's cache-poisoning regression exercises.
    return [this](sim::Cpu& cpu) -> sim::Task {
        const auto& stream =
            t_.ops.at(static_cast<std::size_t>(cpu.id()));
        for (const TraceOp& op : stream) {
            switch (op.kind) {
            case sim::OpKind::Read:
                cpu.read(op.arg);
                break;
            case sim::OpKind::Write:
                cpu.write(op.arg);
                break;
            case sim::OpKind::Busy:
                cpu.busy(op.arg);
                break;
            case sim::OpKind::Prefetch:
                cpu.prefetch(op.arg);
                break;
            case sim::OpKind::FetchOp:
                cpu.fetchOp(op.arg);
                break;
            case sim::OpKind::Rmw:
                cpu.rmw(op.arg);
                break;
            case sim::OpKind::Checkpoint:
                co_await cpu.checkpoint();
                break;
            case sim::OpKind::Barrier:
                co_await cpu.barrier(
                    barriers_.at(static_cast<std::size_t>(op.arg)));
                break;
            case sim::OpKind::Acquire:
                co_await cpu.acquire(
                    locks_.at(static_cast<std::size_t>(op.arg)));
                break;
            case sim::OpKind::Release:
                cpu.release(
                    locks_.at(static_cast<std::size_t>(op.arg)));
                break;
            }
        }
    };
}

} // namespace ccnuma::apps
