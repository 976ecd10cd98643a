#include "sim/cpu.hh"

#include "sim/machine.hh"
#include "sim/scheduler.hh"

namespace ccnuma::sim {

void
Cpu::readRange(Addr addr, std::uint64_t bytes)
{
    const Addr line_mask = ~static_cast<Addr>(mem_->config().lineBytes - 1);
    const Addr first = addr & line_mask;
    const Addr last = (addr + (bytes ? bytes - 1 : 0)) & line_mask;
    for (Addr a = first; a <= last; a += mem_->config().lineBytes)
        read(a);
}

void
Cpu::writeRange(Addr addr, std::uint64_t bytes)
{
    const Addr line_mask = ~static_cast<Addr>(mem_->config().lineBytes - 1);
    const Addr first = addr & line_mask;
    const Addr last = (addr + (bytes ? bytes - 1 : 0)) & line_mask;
    for (Addr a = first; a <= last; a += mem_->config().lineBytes)
        write(a);
}

Cpu::SyncAwait
Cpu::barrier(BarrierId b)
{
    if (rec_) [[unlikely]]
        rec_->onOp(id_, OpKind::Barrier,
                   static_cast<std::uint64_t>(b.idx));
    const bool proceed = machine_->barrierArrive(b, *this);
    return SyncAwait{*this, !proceed};
}

Cpu::SyncAwait
Cpu::acquire(LockId l)
{
    if (rec_) [[unlikely]]
        rec_->onOp(id_, OpKind::Acquire,
                   static_cast<std::uint64_t>(l.idx));
    const bool granted = machine_->lockAcquire(l, *this);
    return SyncAwait{*this, !granted};
}

void
Cpu::release(LockId l)
{
    if (rec_) [[unlikely]]
        rec_->onOp(id_, OpKind::Release,
                   static_cast<std::uint64_t>(l.idx));
    machine_->lockRelease(l, *this);
}

void
Cpu::reschedule()
{
    sched_->ready(id_, now_);
}

bool
Cpu::yieldInPlace()
{
    if (!sched_->yield(id_, now_))
        return false;
    beginQuantum(sched_->quantum());
    return true;
}

void
Cpu::markBlocked()
{
    // The scheduler needs no call: a processor that returns to it
    // without having re-queued itself is blocked (or done).
    if (nestedDepth_ > 0)
        nestedBlocked_ = true;
}

} // namespace ccnuma::sim
