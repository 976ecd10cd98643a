/**
 * @file
 * Single-flight cache of P-independent application inputs.
 *
 * A speedup is T(1)/T(P) of the *same* problem, so an app's host-side
 * input (barnes' bodies, octree and visit lists; the volume renderers'
 * work profiles) is identical across a study's uniprocessor baseline
 * and every machine size it runs on. An InputCache lets those runs
 * build it once. App::setup reaches the cache through an ambient,
 * per-thread Scope rather than a parameter, so App, AppFactory and any
 * factory wrapper that forwards setup(Machine&) stay unchanged; with no
 * Scope installed, sharedInput() builds a private copy every time.
 */

#ifndef CCNUMA_APPS_INPUT_CACHE_HH
#define CCNUMA_APPS_INPUT_CACHE_HH

#include <memory>
#include <string>
#include <typeinfo>
#include <utility>

#include "apps/single_flight.hh"

namespace ccnuma::apps {

/**
 * Immutable inputs by key, built once each: one leader builds a key
 * while concurrent callers wait for it, and a leader whose build throws
 * leaves no entry behind (see SingleFlight). computed() counts builds;
 * hits() counts inputs reused.
 */
class InputCache : public SingleFlight<std::shared_ptr<const void>>
{
  public:
    /// The cache installed on the calling thread, or nullptr.
    static InputCache* current();

    /**
     * Makes `cache` the calling thread's current cache for the guard's
     * lifetime, restoring the previous one (possibly nullptr) after.
     */
    class Scope
    {
      public:
        explicit Scope(InputCache* cache);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        InputCache* prev_;
    };
};

/**
 * The input `build()` returns, shared through the calling thread's
 * current InputCache under `key` (namespaced by T), or built privately
 * when no cache is current. `build` must be a pure function of `key`:
 * every run that names the key reads the same object, which is never
 * mutated after it is built.
 */
template <class T, class F>
std::shared_ptr<const T>
sharedInput(const std::string& key, F&& build)
{
    const auto make = [&] {
        return std::make_shared<const T>(std::forward<F>(build)());
    };
    InputCache* cache = InputCache::current();
    if (!cache)
        return make();
    return std::static_pointer_cast<const T>(cache->getOrCompute(
        std::string(typeid(T).name()) + '/' + key,
        [&]() -> std::shared_ptr<const void> { return make(); }));
}

} // namespace ccnuma::apps

#endif // CCNUMA_APPS_INPUT_CACHE_HH
