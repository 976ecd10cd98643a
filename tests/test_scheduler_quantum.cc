/**
 * @file
 * Scheduler-quantum ablation: simulated results must be insensitive to
 * the scheduling quantum within a reasonable range (the quantum is a
 * simulation parameter, not a machine parameter).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "apps/registry.hh"
#include "core/study.hh"

using namespace ccnuma;

namespace {

sim::Cycles
runWithQuantum(const std::string& app, std::uint64_t size, sim::Cycles q)
{
    sim::MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.quantum = q;
    auto a = apps::makeApp(app, size);
    return core::runApp(cfg, *a).time;
}

} // namespace

// The app name is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, and the address (part of the
// listed test name) would change from build to build.
class QuantumSweep
    : public ::testing::TestWithParam<std::pair<std::string, std::uint64_t>>
{
};

TEST_P(QuantumSweep, TimeInsensitiveToQuantum)
{
    const auto [app, size] = GetParam();
    const sim::Cycles base = runWithQuantum(app, size, 500);
    for (const sim::Cycles q : {250u, 1000u, 2000u}) {
        const sim::Cycles t = runWithQuantum(app, size, q);
        EXPECT_NEAR(static_cast<double>(t), static_cast<double>(base),
                    0.15 * base)
            << app << " quantum=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, QuantumSweep,
    ::testing::Values(
        std::make_pair(std::string("fft"), std::uint64_t{1 << 14}),
        std::make_pair(std::string("ocean"), std::uint64_t{130}),
        std::make_pair(std::string("radix"), std::uint64_t{1 << 16}),
        std::make_pair(std::string("water-spatial"), std::uint64_t{1024})),
    [](const auto& info) {
        std::string n = info.param.first;
        for (auto& ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });
