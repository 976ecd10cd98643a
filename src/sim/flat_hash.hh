/**
 * @file
 * Open-addressing hash map from LineAddr to V for the simulator's hot
 * paths (directory entries, pending prefetch fills).
 *
 * Design, tuned for the access patterns of MemSys:
 *  - linear probing over one contiguous slot array: a lookup is one
 *    multiply, one shift and a short scan of adjacent memory, instead
 *    of std::unordered_map's bucket indirection + node chase;
 *  - power-of-two capacity with Fibonacci (multiplicative) hashing, so
 *    the "bucket" index is a shift rather than a modulo by a prime;
 *  - backward-shift deletion: erase re-packs the probe window instead
 *    of leaving tombstones, so long-running churn (lines dropping to
 *    Uncached and returning) cannot degrade probe lengths;
 *  - an empty slot holds kEmptyKey (~0), never a line-aligned address,
 *    so there is no occupancy array beside the slots; inserting
 *    kEmptyKey is an assertion failure.
 *
 * The behavioural contract difference from std::unordered_map that
 * callers MUST respect: references returned by operator[]/find() are
 * invalidated by any subsequent insert or erase (rehash moves slots;
 * backward-shift moves neighbours). See MemSys::access(), which
 * re-looks-up the missing line only after victim handling.
 */

#ifndef CCNUMA_SIM_FLAT_HASH_HH
#define CCNUMA_SIM_FLAT_HASH_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace ccnuma::sim {

template <typename V>
class FlatHashMap
{
  public:
    explicit FlatHashMap(std::size_t initial_capacity = 64)
    {
        rehash(std::bit_ceil(
            initial_capacity < 8 ? std::size_t{8} : initial_capacity));
    }

    /// Marks an empty slot; never a line-aligned address.
    static constexpr LineAddr kEmptyKey = ~LineAddr{0};

    /// Value for `key`, default-constructed if absent. The reference is
    /// valid only until the next insert or erase.
    V&
    operator[](LineAddr key)
    {
        std::size_t i = slotOf(key);
        if (slots_[i].key != kEmptyKey)
            return slots_[i].value;
        // Not present: grow first if needed (load factor 0.7), then
        // claim the slot.
        assert(key != kEmptyKey);
        if ((size_ + 1) * 10 > slots_.size() * 7) {
            rehash(slots_.size() * 2);
            i = slotOf(key);
        }
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return slots_[i].value;
    }

    /// Pointer to the value, or nullptr; valid until the next mutation.
    V*
    find(LineAddr key)
    {
        Slot& s = slots_[slotOf(key)];
        return s.key != kEmptyKey ? &s.value : nullptr;
    }
    const V*
    find(LineAddr key) const
    {
        return const_cast<FlatHashMap*>(this)->find(key);
    }

    /// Remove `key` if present (backward-shift, no tombstones).
    bool
    erase(LineAddr key)
    {
        const std::size_t i = slotOf(key);
        if (slots_[i].key == kEmptyKey)
            return false;
        removeAt(i);
        return true;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /// Call fn(key, value) for every entry, in unspecified order.
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const Slot& s : slots_)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

    void
    reserve(std::size_t n)
    {
        if (n * 10 > slots_.size() * 7)
            rehash(std::bit_ceil(n * 10 / 7 + 1));
    }

  private:
    struct Slot {
        LineAddr key = kEmptyKey;
        V value{};
    };

    std::size_t
    indexOf(LineAddr key) const
    {
        // Fibonacci hashing: the golden-ratio multiplier diffuses the
        // low-entropy line addresses; the top bits index the table.
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    void
    removeAt(std::size_t hole)
    {
        // Backward-shift: walk the probe chain after the hole; any
        // element whose ideal slot is NOT cyclically inside (hole, j]
        // may move back into the hole (it only ever probed past the
        // hole because of a collision run that the hole now breaks).
        std::size_t i = hole;
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask_;
            if (slots_[j].key == kEmptyKey)
                break;
            const std::size_t k = indexOf(slots_[j].key);
            const bool unmovable =
                j > i ? (k > i && k <= j) : (k > i || k <= j);
            if (unmovable)
                continue;
            slots_[i] = slots_[j];
            i = j;
        }
        slots_[i] = Slot{};
        --size_;
    }

    /// The slot holding `key`, else the empty slot ending its probe
    /// run (so a lookup of kEmptyKey finds nothing).
    std::size_t
    slotOf(LineAddr key) const
    {
        std::size_t i = indexOf(key);
        while (slots_[i].key != key && slots_[i].key != kEmptyKey)
            i = (i + 1) & mask_;
        return i;
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Slot> old_slots = std::move(slots_);
        mask_ = new_capacity - 1;
        shift_ = 64 - std::countr_zero(new_capacity);
        slots_.assign(new_capacity, Slot{});
        for (const Slot& s : old_slots)
            if (s.key != kEmptyKey)
                slots_[slotOf(s.key)] = s;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_FLAT_HASH_HH
