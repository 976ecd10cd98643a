/**
 * @file
 * Thread-safe, single-flight memoization by string key: the one
 * implementation behind core::SeqBaselineCache (uniprocessor baseline
 * times) and apps::InputCache (shared app inputs).
 */

#ifndef CCNUMA_APPS_SINGLE_FLIGHT_HH
#define CCNUMA_APPS_SINGLE_FLIGHT_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
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
 * All methods are safe to call from any thread.
 */
template <class V>
class SingleFlight
{
  public:
    using Compute = std::function<V()>;

    /**
     * Return the cached value for `key`, computing (and caching) it via
     * `compute` on a miss. An empty key disables caching: `compute` is
     * invoked unconditionally and nothing is stored or counted.
     */
    V
    getOrCompute(const std::string& key, const Compute& compute)
    {
        if (key.empty())
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
            slots_.erase(key);
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
        if (key.empty())
            return;
        std::lock_guard<std::mutex> lk(mu_);
        fillLocked(key, std::move(value));
    }

    /// Number of completed (ready) entries.
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::size_t n = 0;
        for (const auto& [k, s] : slots_)
            n += s.ready ? 1 : 0;
        return n;
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
    };

    void
    fillLocked(const std::string& key, V value)
    {
        Slot& s = slots_[key];
        s.value = std::move(value);
        s.ready = true;
        cv_.notify_all();
    }

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::string, Slot> slots_;
    std::uint64_t computed_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_SINGLE_FLIGHT_HH
