#include "sim/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>
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
    : lineShift_(log2Exact(line_bytes)),
      sets_(bytes / (static_cast<std::uint64_t>(line_bytes) * assoc)),
      assoc_(assoc)
{
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
        throw std::invalid_argument("cache set count must be a power of 2");
    ways_ = std::make_unique_for_overwrite<Way[]>(
        sets_ * static_cast<std::uint64_t>(assoc_));
    setInit_.assign((sets_ + 63) / 64, 0);
    const Protocol& pr = proto ? *proto : Protocol::mesi();
    for (int s = 1; s < kProtoStates; ++s) {
        switch (pr.req[kProtoWrite][s].next) {
          case NextState::Shared:
            writeHitNext_[s] = LineState::Shared;
            break;
          case NextState::Dirty:
            writeHitNext_[s] = LineState::Dirty;
            break;
          case NextState::Owned:
            writeHitNext_[s] = LineState::Owned;
            break;
          default:
            // Same / OwnedIfSharers: leave the state for the engine.
            writeHitNext_[s] = LineState::Invalid;
            break;
        }
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
    return w ? w->state : LineState::Invalid;
}

LineState
Cache::invalidate(Addr addr)
{
    if (Way* w = find(lineOf(addr))) {
        const LineState st = w->state;
        w->state = LineState::Invalid;
        return st;
    }
    return LineState::Invalid;
}

void
Cache::downgrade(Addr addr)
{
    if (Way* w = find(lineOf(addr)))
        if (w->state == LineState::Dirty)
            w->state = LineState::Shared;
}

void
Cache::setState(Addr addr, LineState st)
{
    Way* w = find(lineOf(addr));
    assert(w != nullptr);
    if (w)
        w->state = st;
}

void
Cache::initSet(std::uint64_t set)
{
    setInit_[set >> 6] |= std::uint64_t{1} << (set & 63);
    Way* base = &ways_[set * assoc_];
    for (int w = 0; w < assoc_; ++w)
        base[w] = Way{0, LineState::Invalid, 0};
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
    useClock_ = 0;
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
