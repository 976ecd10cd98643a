/**
 * @file
 * Application interface: every workload (eleven applications, each with
 * one or more algorithm variants) is an App that allocates its shared
 * arenas on a Machine and supplies the per-processor program.
 */

#ifndef CCNUMA_APPS_APP_HH
#define CCNUMA_APPS_APP_HH

#include <memory>
#include <string>

#include "sim/machine.hh"

namespace ccnuma::apps {

/**
 * One configured application instance.
 *
 * Lifecycle: construct with a problem size, call setup() exactly once on
 * the Machine that will run it (allocates arenas, places pages, creates
 * barriers/locks, precomputes host-side data), then pass program() to
 * Machine::run(). An App instance is bound to one Machine after setup.
 *
 * Host-side data that does not depend on the machine (a dataset, a
 * traversal or work profile) may be obtained in setup() through
 * apps::sharedInput (input_cache.hh), which lets every run of one
 * study read one copy. Such a shared input is immutable once built and
 * a pure function of its key: the key must name every parameter the
 * build reads, and neither setup() nor program() may mutate it.
 * program() closures hold the input's shared_ptr, never a raw pointer
 * into it, so the input lives as long as the program does.
 */
class App
{
  public:
    virtual ~App() = default;

    /// Short identifier, e.g. "fft" or "barnes-spatial".
    virtual std::string name() const = 0;

    /// Allocate and place shared data; create synchronization objects.
    virtual void setup(sim::Machine& m) = 0;

    /// The program each simulated processor runs.
    virtual sim::Machine::Program program() = 0;

  protected:
    /// [begin, end) of a block partition of `total` items over `parts`.
    static std::pair<std::uint64_t, std::uint64_t>
    blockRange(std::uint64_t total, int parts, int idx)
    {
        const std::uint64_t b = total * idx / parts;
        const std::uint64_t e = total * (idx + 1) / parts;
        return {b, e};
    }
};

using AppPtr = std::unique_ptr<App>;

} // namespace ccnuma::apps

/**
 * Drive a nested phase coroutine to completion from a top-level program
 * coroutine, forwarding its quantum yields (cpu.nestedCheckpoint()) to
 * the scheduler and its synchronization blocks (cpu.acquire / barrier
 * inside the nested task) to a plain suspension that the grant wakes.
 * Must be used inside a coroutine (it co_awaits).
 */
#define CCNUMA_RUN_NESTED(cpu, expr)                                     \
    do {                                                                 \
        ::ccnuma::sim::Task nested_task_ = (expr);                       \
        (cpu).enterNested();                                             \
        while (!nested_task_.done()) {                                   \
            nested_task_.handle().resume();                              \
            if (nested_task_.done())                                     \
                break;                                                   \
            if ((cpu).consumeNestedBlock())                              \
                co_await (cpu).suspendPlain();                           \
            else                                                         \
                co_await (cpu).checkpoint();                             \
        }                                                                \
        (cpu).exitNested();                                              \
        nested_task_.rethrowIfFailed();                                  \
    } while (0)

#endif // CCNUMA_APPS_APP_HH
