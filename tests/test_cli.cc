/**
 * @file
 * Tests for the shared command-line helper (core::cli) used by the
 * example and bench drivers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/cli.hh"
#include "sim/config.hh"

using namespace ccnuma;

namespace {

core::cli::Options
parseArgs(std::vector<const char*> args)
{
    args.insert(args.begin(), "prog");
    return core::cli::parse(static_cast<int>(args.size()),
                            const_cast<char**>(args.data()));
}

/// Scoped unset of the env vars cli::parse consults.
struct CleanEnv {
    CleanEnv()
    {
        unsetenv("CCNUMA_TRACE");
        unsetenv("CCNUMA_JSON");
        unsetenv("CCNUMA_JOBS");
        unsetenv("CCNUMA_SEED");
        unsetenv("CCNUMA_EPOCH");
    }
};

} // namespace

TEST(Cli, DefaultsAreEmpty)
{
    CleanEnv env;
    const auto opt = parseArgs({});
    EXPECT_TRUE(opt.traceFile.empty());
    EXPECT_TRUE(opt.jsonFile.empty());
    EXPECT_EQ(opt.jobs, 1);
    EXPECT_TRUE(opt.positional.empty());
    EXPECT_TRUE(opt.unknown.empty());
}

TEST(Cli, ParsesFlagsAndPositionals)
{
    CleanEnv env;
    const auto opt = parseArgs({"barnes", "--trace=t.json", "16384",
                                "--jobs=4", "--json=m.json"});
    EXPECT_EQ(opt.traceFile, "t.json");
    EXPECT_EQ(opt.jsonFile, "m.json");
    EXPECT_EQ(opt.jobs, 4);
    ASSERT_EQ(opt.positional.size(), 2u);
    EXPECT_EQ(opt.positionalOr(0, std::string("x")), "barnes");
    EXPECT_EQ(opt.positionalOr(1, std::uint64_t{0}), 16384u);
    EXPECT_EQ(opt.positionalOr(2, std::string("dflt")), "dflt");
    EXPECT_EQ(opt.positionalOr(9, std::uint64_t{7}), 7u);
}

TEST(Cli, CollectsUnknownFlags)
{
    CleanEnv env;
    const auto opt = parseArgs({"--frobnicate", "--jobs=2", "app"});
    ASSERT_EQ(opt.unknown.size(), 1u);
    EXPECT_EQ(opt.unknown[0], "--frobnicate");
    EXPECT_FALSE(core::cli::warnUnknown(opt));
    EXPECT_TRUE(core::cli::warnUnknown(parseArgs({"app"})));
}

TEST(Cli, EnvFallbacksAndFlagPrecedence)
{
    CleanEnv env;
    setenv("CCNUMA_TRACE", "env-trace.json", 1);
    setenv("CCNUMA_JSON", "env-metrics.json", 1);
    setenv("CCNUMA_JOBS", "8", 1);
    const auto from_env = parseArgs({});
    EXPECT_EQ(from_env.traceFile, "env-trace.json");
    EXPECT_EQ(from_env.jsonFile, "env-metrics.json");
    EXPECT_EQ(from_env.jobs, 8);

    const auto overridden = parseArgs({"--jobs=2", "--trace=cli.json"});
    EXPECT_EQ(overridden.jobs, 2) << "flag beats env";
    EXPECT_EQ(overridden.traceFile, "cli.json");
    EXPECT_EQ(overridden.jsonFile, "env-metrics.json");
    unsetenv("CCNUMA_TRACE");
    unsetenv("CCNUMA_JSON");
    unsetenv("CCNUMA_JOBS");
}

TEST(Cli, JobsZeroMeansAutoDetect)
{
    CleanEnv env;
    // 0 is passed through; the StudyRunner resolves it to the host's
    // hardware concurrency.
    EXPECT_EQ(parseArgs({"--jobs=0"}).jobs, 0);
}

TEST(Cli, SeedFlagAndEnvFallback)
{
    CleanEnv env;
    EXPECT_EQ(parseArgs({}).seed, 1u) << "default seed";
    EXPECT_EQ(parseArgs({"--seed=42"}).seed, 42u);

    setenv("CCNUMA_SEED", "7", 1);
    EXPECT_EQ(parseArgs({}).seed, 7u);
    EXPECT_EQ(parseArgs({"--seed=9"}).seed, 9u) << "flag beats env";
    unsetenv("CCNUMA_SEED");
}

TEST(Cli, MalformedNumericValuesKeepDefaultsAndAreReported)
{
    CleanEnv env;
    for (const char* bad :
         {"--jobs=abc", "--jobs=", "--jobs=3x", "--jobs=-2"}) {
        const auto opt = parseArgs({bad});
        EXPECT_EQ(opt.jobs, 1) << bad;
        ASSERT_EQ(opt.malformed.size(), 1u) << bad;
        EXPECT_FALSE(core::cli::warnUnknown(opt)) << bad;
    }
    const auto opt = parseArgs({"--seed=0x10"});
    EXPECT_EQ(opt.seed, 1u) << "hex is rejected, default kept";
    EXPECT_FALSE(opt.malformed.empty());

    setenv("CCNUMA_SEED", "not-a-number", 1);
    const auto env_opt = parseArgs({});
    EXPECT_EQ(env_opt.seed, 1u);
    ASSERT_EQ(env_opt.malformed.size(), 1u);
    EXPECT_NE(env_opt.malformed[0].find("CCNUMA_SEED"),
              std::string::npos);
    unsetenv("CCNUMA_SEED");
}

TEST(Cli, EpochCyclesFlagAndEnvFallback)
{
    CleanEnv env;
    EXPECT_EQ(parseArgs({}).epochCycles, 0u)
        << "default 0 keeps the TraceConfig epoch length";
    EXPECT_EQ(parseArgs({"--epoch-cycles=50000"}).epochCycles, 50000u);

    setenv("CCNUMA_EPOCH", "25000", 1);
    EXPECT_EQ(parseArgs({}).epochCycles, 25000u);
    EXPECT_EQ(parseArgs({"--epoch-cycles=1"}).epochCycles, 1u)
        << "flag beats env";
    unsetenv("CCNUMA_EPOCH");

    const auto bad = parseArgs({"--epoch-cycles=soon"});
    EXPECT_EQ(bad.epochCycles, 0u);
    EXPECT_FALSE(bad.malformed.empty());
}

TEST(Cli, StrictU64Parse)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(core::cli::parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(core::cli::parseU64("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ull);
    EXPECT_FALSE(core::cli::parseU64("", v));
    EXPECT_FALSE(core::cli::parseU64("+3", v));
    EXPECT_FALSE(core::cli::parseU64("-3", v));
    EXPECT_FALSE(core::cli::parseU64("3 ", v));
    EXPECT_FALSE(core::cli::parseU64("18446744073709551616", v))
        << "overflow";
}

TEST(Cli, StrictU64ListParse)
{
    std::vector<std::uint64_t> v{99};
    EXPECT_TRUE(core::cli::parseU64List("1,8,32", v));
    EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 8, 32}));
    EXPECT_TRUE(core::cli::parseU64List("7", v));
    EXPECT_EQ(v, (std::vector<std::uint64_t>{7}));

    for (const char* bad : {"", ",", "1,", ",1", "1,,2", "1,x", "1 ,2"}) {
        v = {99};
        EXPECT_FALSE(core::cli::parseU64List(bad, v)) << bad;
        EXPECT_EQ(v, (std::vector<std::uint64_t>{99}))
            << "failed parse must not touch the output: " << bad;
    }
}

TEST(Cli, RetiredSimJobsFlagIsUnknown)
{
    // The flag selected the removed parallel engine; it is now an
    // ordinary unknown flag, so a script still passing it is warned.
    CleanEnv env;
    const auto opt = parseArgs({"--sim-jobs=4"});
    ASSERT_EQ(opt.unknown.size(), 1u);
    EXPECT_EQ(opt.unknown[0], "--sim-jobs=4");
    EXPECT_TRUE(opt.malformed.empty());
    EXPECT_FALSE(core::cli::warnUnknown(opt));
}

TEST(Cli, ApplyMachineSetsProtocolAndDirFormat)
{
    CleanEnv env;
    auto opt = parseArgs({"--protocol=moesi", "--dir-format=coarse:4"});
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(8);
    EXPECT_TRUE(core::cli::applyMachine(opt, cfg));
    EXPECT_EQ(cfg.protocol.kind, sim::ProtocolKind::MOESI);
    EXPECT_EQ(cfg.dirFormat.format, sim::DirFormat::CoarseVector);
    EXPECT_EQ(cfg.dirFormat.param, 4);
    EXPECT_TRUE(core::cli::warnUnknown(opt));

    // A value that does not parse keeps the default and is reported.
    auto bad = parseArgs({"--protocol=bogus"});
    sim::MachineConfig cfg2 = sim::MachineConfig::origin2000(8);
    EXPECT_FALSE(core::cli::applyMachine(bad, cfg2));
    EXPECT_EQ(cfg2.protocol.kind, sim::ProtocolKind::MESI);
    ASSERT_EQ(bad.malformed.size(), 1u);
    EXPECT_FALSE(core::cli::warnUnknown(bad));
}

TEST(Cli, TakeFlagAndSwitchConsumeUnknown)
{
    CleanEnv env;
    auto opt = parseArgs({"--shrink", "--out=base.json", "--leftover",
                          "--seeds=12", "--ops=12x"});
    ASSERT_EQ(opt.unknown.size(), 5u);

    std::string out;
    EXPECT_TRUE(opt.takeFlag("out", out));
    EXPECT_EQ(out, "base.json");
    EXPECT_TRUE(opt.takeSwitch("shrink"));
    EXPECT_FALSE(opt.takeSwitch("shrink")) << "consumed only once";
    EXPECT_FALSE(opt.takeFlag("missing", out));

    // takeU64: absent keeps the value, valid parses, malformed keeps
    // the value and is reported through `malformed`.
    std::uint64_t n = 7;
    EXPECT_TRUE(opt.takeU64("procs", n));
    EXPECT_EQ(n, 7u);
    EXPECT_TRUE(opt.takeU64("seeds", n));
    EXPECT_EQ(n, 12u);
    EXPECT_TRUE(opt.malformed.empty());
    EXPECT_FALSE(opt.takeU64("ops", n));
    EXPECT_EQ(n, 12u);
    ASSERT_EQ(opt.malformed.size(), 1u);
    EXPECT_EQ(opt.malformed[0], "--ops=12x");

    ASSERT_EQ(opt.unknown.size(), 1u);
    EXPECT_EQ(opt.unknown[0], "--leftover");
    EXPECT_FALSE(core::cli::warnUnknown(opt));
    opt.unknown.clear();
    EXPECT_FALSE(core::cli::warnUnknown(opt)) << "malformed alone fails";
}
