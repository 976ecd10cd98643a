/**
 * @file
 * Thread-safe, single-flight memoization by string key: the one
 * implementation behind core::SeqBaselineCache (uniprocessor baseline
 * times), apps::InputCache (shared app inputs) and ccnuma_serve's
 * result cache (finished response payloads, LRU-bounded).
 */

#ifndef CCNUMA_APPS_SINGLE_FLIGHT_HH
#define CCNUMA_APPS_SINGLE_FLIGHT_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

namespace ccnuma::apps {

/**
 * Memoizes values of type V by string key with single-flight
 * semantics: when two threads ask for the same missing key, one runs
 * `compute` and the other blocks until the value is ready -- the
 * computation is never duplicated. If the leader's compute throws, its
 * slot is erased, the exception propagates only to the leader's
 * caller, and one waiter is promoted to leader and retries.
 *
 * A bounded cache keeps at most `capacity` ready entries: each hit and
 * fill stamps its entry with a use tick, and a fill past the capacity
 * evicts the ready entry with the oldest tick (a scan; in-flight slots
 * are never evicted). Capacity 0 stores nothing: every call computes.
 *
 * All methods are safe to call from any thread.
 */
template <class V>
class SingleFlight
{
  public:
    using Compute = std::function<V()>;
    static constexpr std::size_t kUnbounded =
        std::numeric_limits<std::size_t>::max();

    explicit SingleFlight(std::size_t capacity = kUnbounded)
        : capacity_(capacity)
    {
    }

    /**
     * Return the cached value for `key`, computing (and caching) it via
     * `compute` on a miss. An empty key or a capacity of 0 disables
     * caching: `compute` is invoked unconditionally and nothing is
     * stored or counted.
     */
    V
    getOrCompute(const std::string& key, const Compute& compute)
    {
        if (key.empty() || capacity_ == 0)
            return compute();

        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            const auto it = slots_.find(key);
            if (it == slots_.end()) {
                slots_.emplace(key, Slot{});
                break;
            }
            if (it->second.ready) {
                ++hits_;
                it->second.lastUse = ++tick_;
                return it->second.value;
            }
            // Someone else is computing this key; on wake the slot is
            // either ready or gone (the leader failed) -- re-decide.
            cv_.wait(lk);
        }

        // We lead `key`: compute without the lock so other keys (and
        // waiters) make progress.
        lk.unlock();
        std::optional<V> value;
        try {
            value.emplace(compute());
        } catch (...) {
            lk.lock();
            // An insert() may have filled the slot meanwhile; keep it.
            const auto it = slots_.find(key);
            if (it != slots_.end() && !it->second.ready)
                slots_.erase(it);
            cv_.notify_all();
            throw;
        }
        lk.lock();
        ++computed_;
        fillLocked(key, *value);
        return std::move(*value);
    }

    /// Non-blocking lookup; nullopt if absent or still in flight.
    std::optional<V>
    lookup(const std::string& key) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = slots_.find(key);
        if (it == slots_.end() || !it->second.ready)
            return std::nullopt;
        return it->second.value;
    }

    /// Pre-seed a value (e.g. from a previous study's JSON).
    void
    insert(const std::string& key, V value)
    {
        if (key.empty() || capacity_ == 0)
            return;
        std::lock_guard<std::mutex> lk(mu_);
        fillLocked(key, std::move(value));
    }

    /// Number of completed (ready) entries.
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return ready_;
    }

    /// How many getOrCompute calls ran their compute to completion.
    std::uint64_t
    computed() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return computed_;
    }

    /// How many getOrCompute calls were answered from the cache or by
    /// waiting on an in-flight computation (i.e. not recomputed).
    std::uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return hits_;
    }

  private:
    struct Slot {
        V value{};
        bool ready = false;
        std::uint64_t lastUse = 0;
    };

    void
    fillLocked(const std::string& key, V value)
    {
        Slot& s = slots_[key];
        s.value = std::move(value);
        ready_ += s.ready ? 0 : 1;
        s.ready = true;
        s.lastUse = ++tick_;
        while (ready_ > capacity_) {
            auto victim = slots_.end();
            for (auto it = slots_.begin(); it != slots_.end(); ++it)
                if (it->second.ready &&
                    (victim == slots_.end() ||
                     it->second.lastUse < victim->second.lastUse))
                    victim = it;
            slots_.erase(victim);
            --ready_;
        }
        cv_.notify_all();
    }

    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::string, Slot> slots_;
    std::size_t ready_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t computed_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_SINGLE_FLIGHT_HH
