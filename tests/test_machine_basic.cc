/**
 * @file
 * Smoke and integration tests for the Machine execution engine:
 * coroutine scheduling, barriers, locks, determinism and deadlock
 * detection.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/machine.hh"

using namespace ccnuma::sim;

namespace {

MachineConfig
smallConfig(int procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.cacheBytes = 64 << 10; // small cache for fast tests
    return cfg;
}

} // namespace

TEST(MachineBasic, SingleProcBusyOnly)
{
    Machine m(smallConfig(1));
    RunResult r = m.run([](Cpu& cpu) -> Task {
        cpu.busy(1000);
        co_return;
    });
    EXPECT_EQ(r.time, 1000u);
    EXPECT_EQ(r.procs[0].t.busy, 1000u);
    EXPECT_EQ(r.procs[0].t.memStall, 0u);
}

TEST(MachineBasic, ReadMissThenHit)
{
    Machine m(smallConfig(1));
    const Addr a = m.alloc(4096);
    RunResult r = m.run([a](Cpu& cpu) -> Task {
        cpu.read(a);
        cpu.read(a);
        co_return;
    });
    EXPECT_EQ(r.procs[0].c.missLocal, 1u);
    EXPECT_EQ(r.procs[0].c.l2Hits, 1u);
    EXPECT_GT(r.procs[0].t.memStall, 0u);
}

TEST(MachineBasic, AllProcsRunAndFinish)
{
    const int P = 8;
    Machine m(smallConfig(P));
    RunResult r = m.run([](Cpu& cpu) -> Task {
        cpu.busy(100 * (cpu.id() + 1));
        co_return;
    });
    EXPECT_EQ(r.time, 800u);
    for (int p = 0; p < P; ++p)
        EXPECT_EQ(r.procs[p].t.busy, 100u * (p + 1));
}

TEST(MachineBasic, BarrierSynchronizesAll)
{
    const int P = 8;
    Machine m(smallConfig(P));
    const BarrierId bar = m.barrierCreate();
    RunResult r = m.run([bar](Cpu& cpu) -> Task {
        // Chunked compute with checkpoints, per the engine's convention
        // that long computation yields at least once per quantum.
        const int chunks = cpu.id() == 3 ? 50 : 1;
        for (int i = 0; i < chunks; ++i) {
            cpu.busy(cpu.id() == 3 ? 1000 : 10);
            co_await cpu.checkpoint();
        }
        co_await cpu.barrier(bar);
        cpu.busy(10);
        co_return;
    });
    // Everyone waits for proc 3; all finish just after it.
    EXPECT_GE(r.time, 50000u);
    for (int p = 0; p < P; ++p) {
        EXPECT_EQ(r.procs[p].c.barriersPassed, 1u);
        if (p != 3) {
            EXPECT_GT(r.procs[p].t.syncWait, 40000u) << "proc " << p;
        }
    }
    // The latecomer barely waits.
    EXPECT_LT(r.procs[3].t.syncWait, 5000u);
}

TEST(MachineBasic, BarrierReusableAcrossPhases)
{
    const int P = 4;
    Machine m(smallConfig(P));
    const BarrierId bar = m.barrierCreate();
    RunResult r = m.run([bar](Cpu& cpu) -> Task {
        for (int it = 0; it < 10; ++it) {
            cpu.busy(100 + 13 * cpu.id());
            co_await cpu.barrier(bar);
        }
        co_return;
    });
    for (int p = 0; p < P; ++p)
        EXPECT_EQ(r.procs[p].c.barriersPassed, 10u);
}

TEST(MachineBasic, LockMutualExclusionSerializes)
{
    const int P = 8;
    Machine m(smallConfig(P));
    const LockId lk = m.lockCreate();
    RunResult r = m.run([lk](Cpu& cpu) -> Task {
        co_await cpu.acquire(lk);
        for (int i = 0; i < 10; ++i) { // long critical section
            cpu.busy(1000);
            co_await cpu.checkpoint();
        }
        cpu.release(lk);
        co_return;
    });
    // Serialized critical sections: total time >= P * section.
    EXPECT_GE(r.time, 8u * 10000u);
    std::uint64_t acquires = 0;
    for (int p = 0; p < P; ++p)
        acquires += r.procs[p].c.lockAcquires;
    EXPECT_EQ(acquires, 8u);
}

TEST(MachineBasic, DeterministicAcrossRuns)
{
    auto once = [] {
        Machine m(smallConfig(16));
        const Addr a = m.alloc(1 << 20);
        const BarrierId bar = m.barrierCreate();
        return m.run([a, bar](Cpu& cpu) -> Task {
            for (int it = 0; it < 4; ++it) {
                for (int i = 0; i < 200; ++i) {
                    cpu.read(a + ((cpu.id() * 571 + i * 131) % 8192) *
                                     128);
                    cpu.busy(20);
                }
                co_await cpu.barrier(bar);
            }
            co_return;
        });
    };
    const RunResult r1 = once();
    const RunResult r2 = once();
    EXPECT_EQ(r1.time, r2.time);
    for (std::size_t p = 0; p < r1.procs.size(); ++p) {
        EXPECT_EQ(r1.procs[p].t.busy, r2.procs[p].t.busy);
        EXPECT_EQ(r1.procs[p].t.memStall, r2.procs[p].t.memStall);
        EXPECT_EQ(r1.procs[p].t.syncWait, r2.procs[p].t.syncWait);
    }
}

TEST(MachineBasic, DeadlockDetected)
{
    Machine m(smallConfig(2));
    const BarrierId bar = m.barrierCreate(); // both procs expected
    EXPECT_THROW(m.run([bar](Cpu& cpu) -> Task {
        if (cpu.id() == 0)
            co_await cpu.barrier(bar); // proc 1 never arrives
        co_return;
    }),
                 std::runtime_error);
}

TEST(MachineBasic, CheckpointYieldsWithoutChangingSemantics)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(1 << 16);
    RunResult r = m.run([a](Cpu& cpu) -> Task {
        for (int i = 0; i < 1000; ++i) {
            cpu.read(a + (i % 512) * 128);
            cpu.busy(5);
            co_await cpu.checkpoint();
        }
        co_return;
    });
    for (int p = 0; p < 4; ++p)
        EXPECT_EQ(r.procs[p].c.loads, 1000u);
}

TEST(MachineBasic, AppExceptionPropagates)
{
    Machine m(smallConfig(2));
    EXPECT_THROW(m.run([](Cpu& cpu) -> Task {
        if (cpu.id() == 1)
            throw std::logic_error("app bug");
        cpu.busy(10);
        co_return;
    }),
                 std::logic_error);
}

TEST(MachineBasic, SubsetBarrier)
{
    Machine m(smallConfig(4));
    const BarrierId bar = m.barrierCreate(2); // only procs 0 and 1
    RunResult r = m.run([bar](Cpu& cpu) -> Task {
        if (cpu.id() < 2)
            co_await cpu.barrier(bar);
        cpu.busy(10);
        co_return;
    });
    EXPECT_EQ(r.procs[0].c.barriersPassed, 1u);
    EXPECT_EQ(r.procs[1].c.barriersPassed, 1u);
    EXPECT_EQ(r.procs[2].c.barriersPassed, 0u);
}

TEST(MachineBasic, CacheSetsInitialiseOnFirstTouch)
{
    // Building a machine initialises no cache set, whatever its size; a
    // run initialises at most one set per distinct line it touches.
    constexpr int kProcs = 256;
    constexpr int kLines = 24;
    Machine m(MachineConfig::origin2000(kProcs));
    for (int p = 0; p < kProcs; ++p)
        ASSERT_EQ(m.mem().cache(p).touchedSets(), 0u) << "proc " << p;

    const std::uint32_t line = m.config().lineBytes;
    const Addr a = m.alloc(kLines * line);
    m.run([a, line](Cpu& cpu) -> Task {
        for (int i = 0; i < kLines; ++i)
            cpu.read(a + ((cpu.id() + i) % kLines) * line);
        if (cpu.id() % 16 == 0)
            cpu.write(a + (cpu.id() / 16) * line);
        co_return;
    });
    for (int p = 0; p < kProcs; ++p)
        EXPECT_LE(m.mem().cache(p).touchedSets(),
                  static_cast<std::uint64_t>(kLines))
            << "proc " << p;
    EXPECT_EQ(m.mem().cache(0).touchedSets(),
              static_cast<std::uint64_t>(kLines));
}

TEST(MachineBasic, AllocOverflowThrowsAndLeavesTheHeap)
{
    Machine m(MachineConfig::origin2000(1));
    const std::uint64_t page = m.config().pageBytes;
    EXPECT_EQ(m.heapEnd(), Machine::kHeapBase);
    EXPECT_EQ(m.alloc(1), Machine::kHeapBase);
    EXPECT_EQ(m.heapEnd(), Machine::kHeapBase + page);
    // The largest request, and the first that would pass the top of
    // the address space once rounded up to pages, both throw without
    // moving the heap, so later allocations cannot overlap.
    const Addr room = ~Addr{0} - m.heapEnd();
    for (const std::uint64_t bytes : {~std::uint64_t{0}, room / page *
                                                             page + 1}) {
        EXPECT_THROW(m.alloc(bytes), std::overflow_error) << bytes;
        EXPECT_EQ(m.heapEnd(), Machine::kHeapBase + page);
    }
    EXPECT_EQ(m.alloc(page), Machine::kHeapBase + page);
}

TEST(MachineConfigValidate, ZeroDivisorsAreTypedErrors)
{
    // Each field is a divisor somewhere in validate() or in building
    // the machine; zero must be reported, not raise SIGFPE.
    const std::pair<std::string, std::function<void(MachineConfig&)>>
        cases[] = {
            {"cacheAssoc", [](MachineConfig& c) { c.cacheAssoc = 0; }},
            {"cacheAssoc", [](MachineConfig& c) { c.cacheAssoc = -2; }},
            {"lineBytes", [](MachineConfig& c) { c.lineBytes = 0; }},
            {"pageBytes", [](MachineConfig& c) { c.pageBytes = 0; }},
            {"procsPerNode", [](MachineConfig& c) { c.procsPerNode = 0; }},
            {"nodesPerRouter",
             [](MachineConfig& c) { c.nodesPerRouter = 0; }},
        };
    for (const auto& [field, break_it] : cases) {
        MachineConfig cfg = MachineConfig::origin2000(8);
        break_it(cfg);
        const std::string err = cfg.validate();
        EXPECT_NE(err.find(field), std::string::npos)
            << field << ": " << err;
        EXPECT_THROW(Machine{cfg}, std::invalid_argument) << field;
    }
}
