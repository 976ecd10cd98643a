/**
 * @file
 * Tests for the table-driven command-line parser (core::cli) that
 * every driver declares its arguments to.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "sim/config.hh"

using namespace ccnuma;
using core::cli::Command;

namespace {

/// One target of every kind, declared the way a driver declares them.
struct Driver {
    std::string app = "water-spatial";
    std::uint64_t size = 0;
    int jobs = 1;
    std::string json;
    std::uint64_t seed = 1;
    bool quick = false;
    std::vector<int> procs = {4};
    std::vector<std::string> studies;
    sim::MachineConfig machine = sim::MachineConfig::origin2000(8);

    Command command()
    {
        return {"prog",
                "a driver under test",
                {{"app", &app, "application name"},
                 {"size", &size, "problem size"}},
                {{"jobs=N", &jobs, "worker threads"},
                 {"json=FILE", &json, "metrics file"},
                 {"seed=N", &seed, "mapping seed"},
                 {"quick", &quick, "trimmed sweeps"},
                 {"procs=P1,P2,..", &procs, "machine sizes"},
                 {"study=APP", &studies, "a study to run"},
                 {"machine", &machine, ""}}};
    }
};

/// What parse() returned and printed for one command line.
struct Outcome {
    std::optional<int> rc;
    std::string out;
    std::string err;
};

Outcome
parseArgs(const Command& cmd, std::vector<const char*> args)
{
    args.insert(args.begin(), "prog");
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    Outcome o;
    o.rc = core::cli::parse(cmd, static_cast<int>(args.size()),
                            const_cast<char**>(args.data()));
    o.out = testing::internal::GetCapturedStdout();
    o.err = testing::internal::GetCapturedStderr();
    return o;
}

} // namespace

TEST(Cli, DefaultsAreEmpty)
{
    Driver d;
    const Outcome o = parseArgs(d.command(), {});
    EXPECT_FALSE(o.rc.has_value());
    EXPECT_EQ(d.app, "water-spatial") << "a positional's default stays";
    EXPECT_EQ(d.jobs, 1);
    EXPECT_TRUE(d.json.empty());
    EXPECT_FALSE(d.quick);
    EXPECT_TRUE(d.studies.empty());
    EXPECT_TRUE(o.out.empty());
    EXPECT_TRUE(o.err.empty());
}

TEST(Cli, ParsesFlagsAndPositionals)
{
    Driver d;
    const Outcome o =
        parseArgs(d.command(), {"barnes", "--json=m.json", "16384",
                                "--jobs=4", "--quick", "--procs=1,8,32"});
    ASSERT_FALSE(o.rc.has_value()) << o.err;
    EXPECT_EQ(d.app, "barnes");
    EXPECT_EQ(d.size, 16384u);
    EXPECT_EQ(d.jobs, 4);
    EXPECT_EQ(d.json, "m.json");
    EXPECT_TRUE(d.quick);
    EXPECT_EQ(d.procs, (std::vector<int>{1, 8, 32}));
}

TEST(Cli, CollectsUnknownFlags)
{
    // Every bad argument is reported, then the usage: not just the
    // first one.
    Driver d;
    const Outcome o = parseArgs(
        d.command(), {"--frobnicate", "--jobs=2", "app", "--jbos=3"});
    EXPECT_EQ(o.rc, 2);
    EXPECT_NE(o.err.find("unknown flag --frobnicate"), std::string::npos)
        << o.err;
    EXPECT_NE(o.err.find("unknown flag --jbos=3"), std::string::npos);
    EXPECT_NE(o.err.find("usage: prog"), std::string::npos);
    EXPECT_TRUE(o.out.empty());
}

TEST(Cli, FlagOfAnotherDriverIsRejected)
{
    // --protocol belongs to drivers that declare a machine entry; a
    // table without one must not take it silently.
    std::uint64_t procs = 4;
    const Command golden{"golden", "", {}, {{"procs=P", &procs, "P"}}};
    for (const char* flag :
         {"--protocol=moesi", "--dir-format=ptr:2", "--json=g.json",
          "--jobs=3", "--trace=x.json", "--seed=2", "--epoch-cycles=9"})
        EXPECT_EQ(parseArgs(golden, {flag}).rc, 2) << flag;
    EXPECT_EQ(parseArgs(golden, {"--procs=8"}).rc, std::nullopt);
    EXPECT_EQ(procs, 8u);
}

TEST(Cli, JobsZeroMeansAutoDetect)
{
    // 0 is passed through; the StudyRunner resolves it to the host's
    // hardware concurrency.
    Driver d;
    EXPECT_EQ(parseArgs(d.command(), {"--jobs=0"}).rc, std::nullopt);
    EXPECT_EQ(d.jobs, 0);
}

TEST(Cli, MalformedNumericValuesKeepDefaultsAndAreReported)
{
    for (const char* bad :
         {"--jobs=abc", "--jobs=", "--jobs=3x", "--jobs=-2", "--jobs= 3",
          "--seed=0x10", "--procs=1,,2", "--procs=1,x", "--jobs"}) {
        Driver d;
        const Outcome o = parseArgs(d.command(), {bad});
        EXPECT_EQ(o.rc, 2) << bad;
        EXPECT_EQ(d.jobs, 1) << bad;
        EXPECT_EQ(d.seed, 1u) << bad;
        EXPECT_EQ(d.procs, (std::vector<int>{4})) << bad;
        EXPECT_NE(o.err.find(bad), std::string::npos) << o.err;
    }
}

TEST(Cli, OverflowingValuesAreRejected)
{
    Driver d;
    EXPECT_EQ(parseArgs(d.command(), {"--jobs=99999999999999999999"}).rc,
              2);
    EXPECT_EQ(parseArgs(d.command(), {"--seed=18446744073709551616"}).rc,
              2);
    // An int target takes no more than INT_MAX: 2^31 would wrap.
    EXPECT_EQ(parseArgs(d.command(), {"--jobs=2147483648"}).rc, 2);
    EXPECT_EQ(parseArgs(d.command(), {"--procs=1,4294967297"}).rc, 2);
    EXPECT_EQ(d.jobs, 1);
    EXPECT_EQ(d.procs, (std::vector<int>{4}));
    EXPECT_EQ(parseArgs(d.command(), {"--jobs=2147483647"}).rc,
              std::nullopt);
    EXPECT_EQ(d.jobs, 2147483647);
}

TEST(Cli, ValueOnASwitchIsRejected)
{
    Driver d;
    const Outcome o = parseArgs(d.command(), {"--quick=1"});
    EXPECT_EQ(o.rc, 2);
    EXPECT_FALSE(d.quick);
    EXPECT_NE(o.err.find("--quick takes no value"), std::string::npos);

    std::string out;
    bool bless = false;
    const Command golden{"golden", "", {},
                         {{"bless", &bless, "rewrite"},
                          {"out=FILE", &out, "write"}}};
    EXPECT_EQ(parseArgs(golden, {"--bless=1"}).rc, 2);
    EXPECT_FALSE(bless);
}

TEST(Cli, SurplusAndMalformedPositionalsAreRejected)
{
    Driver d;
    const Outcome surplus = parseArgs(d.command(), {"fft", "64", "extra"});
    EXPECT_EQ(surplus.rc, 2);
    EXPECT_NE(surplus.err.find("unexpected argument 'extra'"),
              std::string::npos);
    Driver e;
    EXPECT_EQ(parseArgs(e.command(), {"fft", "sixty"}).rc, 2);
    EXPECT_EQ(e.size, 0u);
}

TEST(Cli, RepeatedStringFlagAppendsInOrder)
{
    Driver d;
    ASSERT_EQ(parseArgs(d.command(), {"--study=fft", "--json=a",
                                      "--study=ocean", "--json=b",
                                      "--study=fft"})
                  .rc,
              std::nullopt);
    EXPECT_EQ(d.studies,
              (std::vector<std::string>{"fft", "ocean", "fft"}));
    EXPECT_EQ(d.json, "b") << "a plain string flag keeps the last";

    // A variadic positional collects every remaining word.
    std::vector<std::string> ids;
    const Command paper{"paper", "", {{"ID", &ids, "ids"}}, {}};
    ASSERT_EQ(parseArgs(paper, {"fig2", "table1", "fig3"}).rc,
              std::nullopt);
    EXPECT_EQ(ids, (std::vector<std::string>{"fig2", "table1", "fig3"}));
}

TEST(Cli, UsageNamesEveryEntryAndItsHelp)
{
    Driver d;
    const Command cmd = d.command();
    const std::string text = core::cli::usage(cmd);
    EXPECT_EQ(text.rfind("usage: prog [flags] [app] [size]\n", 0), 0u)
        << text;
    EXPECT_NE(text.find("a driver under test"), std::string::npos);
    for (const auto* list : {&cmd.positionals, &cmd.flags}) {
        for (const core::cli::Arg& a : *list) {
            if (a.name == "machine")
                continue;
            const std::string shown =
                list == &cmd.flags ? "--" + a.name : a.name;
            EXPECT_NE(text.find(shown), std::string::npos) << shown;
            EXPECT_NE(text.find(a.help), std::string::npos) << a.help;
        }
    }
    EXPECT_NE(text.find("--protocol=P"), std::string::npos);
    EXPECT_NE(text.find("--dir-format=F"), std::string::npos);
    EXPECT_NE(text.find("--help"), std::string::npos);
}

TEST(Cli, HelpPrintsUsageToStdoutAndExitsZero)
{
    for (const char* help : {"--help", "-h", "help"}) {
        Driver d;
        const Outcome o = parseArgs(d.command(), {help});
        EXPECT_EQ(o.rc, 0) << help;
        EXPECT_EQ(o.out, core::cli::usage(d.command())) << help;
        EXPECT_TRUE(o.err.empty()) << help;
    }
}

TEST(Cli, EnvironmentIsIgnored)
{
    // The retired CCNUMA_* fallbacks: a variable in the environment
    // changes no target and rejects nothing.
    setenv("CCNUMA_JOBS", "8", 1);
    setenv("CCNUMA_PROTOCOL", "moesi", 1);
    Driver d;
    const Outcome o = parseArgs(d.command(), {});
    unsetenv("CCNUMA_JOBS");
    unsetenv("CCNUMA_PROTOCOL");
    EXPECT_EQ(o.rc, std::nullopt);
    EXPECT_EQ(d.jobs, 1);
    EXPECT_EQ(d.machine.protocol.kind, sim::ProtocolKind::MESI);
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
    EXPECT_FALSE(core::cli::parseU64(" -3", v)) << "strtoull negates";
    EXPECT_FALSE(core::cli::parseU64(" 3", v));
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
    // The flag selected the removed parallel engine; a script still
    // passing it is rejected like any other unknown flag.
    Driver d;
    const Outcome o = parseArgs(d.command(), {"--sim-jobs=4"});
    EXPECT_EQ(o.rc, 2);
    EXPECT_NE(o.err.find("unknown flag --sim-jobs=4"), std::string::npos);
}

TEST(Cli, ApplyMachineSetsProtocolAndDirFormat)
{
    Driver d;
    ASSERT_EQ(parseArgs(d.command(),
                        {"--protocol=moesi", "--dir-format=coarse:4"})
                  .rc,
              std::nullopt);
    EXPECT_EQ(d.machine.protocol.kind, sim::ProtocolKind::MOESI);
    EXPECT_EQ(d.machine.dirFormat.format, sim::DirFormat::CoarseVector);
    EXPECT_EQ(d.machine.dirFormat.param, 4);
    EXPECT_EQ(d.machine.numProcs, 8) << "only the two fields change";

    // A value that does not parse keeps the default and is rejected.
    Driver bad;
    const Outcome o = parseArgs(bad.command(), {"--protocol=bogus"});
    EXPECT_EQ(o.rc, 2);
    EXPECT_EQ(bad.machine.protocol.kind, sim::ProtocolKind::MESI);
    EXPECT_NE(o.err.find("--protocol=bogus"), std::string::npos);
    EXPECT_EQ(parseArgs(bad.command(), {"--dir-format=ptr:0"}).rc, 2);
}
