#include "sim/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <stdexcept>

namespace ccnuma::sim {

namespace {

int
log2Exact(std::uint64_t v)
{
    if (v == 0 || (v & (v - 1)) != 0)
        throw std::invalid_argument("value must be a power of two");
    return std::countr_zero(v);
}

} // namespace

Cache::Cache(std::uint64_t bytes, int assoc, std::uint32_t line_bytes,
             const Protocol* proto)
    : lineShift_(log2Exact(line_bytes)), assoc_(assoc)
{
    if (assoc < 1)
        throw std::invalid_argument("cache associativity must be >= 1");
    sets_ = bytes / (static_cast<std::uint64_t>(line_bytes) * assoc);
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
        throw std::invalid_argument("cache set count must be a power of 2");
    setShift_ = std::countr_zero(sets_);
    ways_ = std::make_unique_for_overwrite<Way[]>(
        sets_ * static_cast<std::uint64_t>(assoc_));
    setInit_.assign((sets_ + 63) / 64, 0);
    const Protocol& pr = proto ? *proto : Protocol::mesi();
    // The concrete next states share LineState's numbering; Same and
    // OwnedIfSharers map to Invalid, leaving the state for the engine.
    static_assert(static_cast<int>(NextState::Owned) ==
                  static_cast<int>(LineState::Owned));
    for (int s = 1; s < kProtoStates; ++s) {
        const NextState nx = pr.req[kProtoWrite][s].next;
        writeHitNext_[s] = nx < NextState::Same
                               ? static_cast<LineState>(nx)
                               : LineState::Invalid;
    }
    // A write hit on Dirty takes the no-upgrade fast path; keep the
    // slot inert whatever the table says.
    writeHitNext_[static_cast<int>(LineState::Dirty)] =
        LineState::Invalid;
}

LineState
Cache::probe(Addr addr) const
{
    const Way* w = find(lineOf(addr));
    return w ? stateOf(*w) : LineState::Invalid;
}

LineState
Cache::invalidate(Addr addr)
{
    const std::uint64_t line = lineOf(addr);
    Way* w = find(line);
    if (!w)
        return LineState::Invalid;
    const LineState st = stateOf(*w);
    Way* end = &ways_[(setIndex(line) + 1) * assoc_];
    std::copy(w + 1, end, w);
    end[-1] = 0;
    return st;
}

void
Cache::downgrade(Addr addr)
{
    if (Way* w = find(lineOf(addr)))
        if (stateOf(*w) == LineState::Dirty)
            *w = withState(*w, LineState::Shared);
}

void
Cache::setState(Addr addr, LineState st)
{
    if (st == LineState::Invalid)
        throw std::invalid_argument(
            "Cache::setState(Invalid) would break the set's recency "
            "order; use invalidate()");
    Way* w = find(lineOf(addr));
    assert(w != nullptr);
    if (w)
        *w = withState(*w, st);
}

void
Cache::fillFresh(std::uint64_t set, Way way)
{
    setInit_[set >> 6] |= std::uint64_t{1} << (set & 63);
    Way* base = &ways_[set * assoc_];
    base[0] = way;
    std::fill(base + 1, base + assoc_, Way{0});
}

Addr
Cache::maxAddr() const
{
    const int bits = kTagBits + setShift_ + lineShift_;
    return bits >= 64 ? ~Addr{0} : (Addr{1} << bits) - 1;
}

void
Cache::throwOutOfRange(Addr addr) const
{
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "Cache: address %#llx is beyond the tag range (max %#llx)",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(maxAddr()));
    throw std::out_of_range(buf);
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    forEachLine([&n](Addr, LineState) { ++n; });
    return n;
}

void
Cache::reset()
{
    std::fill(setInit_.begin(), setInit_.end(), 0);
}

std::uint64_t
Cache::touchedSets() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t bits : setInit_)
        n += std::popcount(bits);
    return n;
}

} // namespace ccnuma::sim
