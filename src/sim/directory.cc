#include "sim/directory.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>

namespace ccnuma::sim {

int
SharerSet::count() const
{
    int n = 0;
    for (auto b : bits_)
        n += std::popcount(b);
    return n;
}

Directory::Directory(std::uint32_t pageBytes, std::uint32_t lineBytes)
    : pageShift_(static_cast<std::uint32_t>(std::countr_zero(pageBytes))),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(lineBytes))),
      linesPerPage_(pageBytes / lineBytes),
      lineMask_(linesPerPage_ - 1),
      heldWords_((linesPerPage_ + 63) / 64)
{
    assert(std::has_single_bit(pageBytes) &&
           std::has_single_bit(lineBytes) && lineBytes <= pageBytes);
}

Directory::~Directory()
{
    for (DirEntry* b : pages_)
        ::operator delete(b);
}

std::size_t
Directory::size() const
{
    std::size_t n = 0;
    for (const DirEntry* b : pages_)
        if (b)
            for (std::uint32_t w = 0; w < heldWords_; ++w)
                n += std::popcount(heldOf(b)[w]);
    return n;
}

DirEntry*
Directory::newBlock(std::uint64_t pn)
{
    if (pn >= pages_.size())
        pages_.resize(pn + 1);
    static_assert(sizeof(DirEntry) % alignof(std::uint64_t) == 0);
    auto* b = static_cast<DirEntry*>(::operator new(
        linesPerPage_ * sizeof(DirEntry) +
        heldWords_ * sizeof(std::uint64_t)));
    std::uninitialized_default_construct_n(b, linesPerPage_);
    ::new (static_cast<void*>(b + linesPerPage_))
        std::uint64_t[heldWords_]();
    ++blocks_;
    return pages_[pn] = b;
}

void
Directory::freeIfEmpty(std::uint64_t pn)
{
    DirEntry* b = pages_[pn];
    const std::uint64_t* held = heldOf(b);
    for (std::uint32_t w = 0; w < heldWords_; ++w)
        if (held[w])
            return;
    // An entry that is not held is always a fresh one (drop() resets
    // it), so nothing live is lost with the block.
    assert(std::all_of(b, b + linesPerPage_,
                       [](const DirEntry& e) { return e == DirEntry{}; }));
    ::operator delete(b);
    pages_[pn] = nullptr;
    --blocks_;
}

} // namespace ccnuma::sim
