#include "sim/scheduler.hh"

#include <stdexcept>

#include "sim/cpu.hh"

namespace ccnuma::sim {

void
Scheduler::attach(std::vector<Cpu>* cpus)
{
    cpus_ = cpus;
    handle_.assign(cpus->size(), {});
    tree_.reset(static_cast<int>(cpus->size()));
}

void
Scheduler::run()
{
    const Cycles quantum = quantum_;
    while (live_ > 0) {
        const ProcId p = tree_.dispatch();
        if (p == kNoProc)
            throw std::runtime_error(
                "simulator deadlock: processors blocked with no runnable "
                "work (missing barrier participant or unreleased lock?)");
        ++dispatches_;
        (*cpus_)[p].beginQuantum(quantum);
        handle_[p].resume();
        // A yield re-keyed p (and ended its run); still running means
        // it blocked on synchronization or finished.
        if (tree_.running() == p) {
            tree_.idle(p);
            if (handle_[p].done())
                --live_;
        }
    }
}

} // namespace ccnuma::sim
