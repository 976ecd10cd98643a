/**
 * @file
 * The one command-line parser of every driver. A driver (or a
 * ccnuma_verify subcommand) declares a cli::Command: its positionals
 * and its flags, each an `{name, target, help}` entry whose target's
 * type is its kind:
 *
 *   std::string*               --name=TEXT (the last one wins)
 *   std::uint64_t*             --name=N, strict decimal
 *   int*                       --name=N, strict decimal <= INT_MAX
 *   std::vector<int>*          --name=1,8,32, each element as for int
 *   bool*                      bare --name; a value is an error
 *   std::vector<std::string>*  --name=TEXT, appended per occurrence
 *   sim::MachineConfig*        --protocol=P and --dir-format=F, parsed
 *                              into cfg.protocol / cfg.dirFormat
 *
 * A positional takes a string, u64, int or (last, variadic) string
 * vector target; every positional is optional, so its target's initial
 * value is its default. parse() either fills the targets or rejects the
 * whole command line: an unknown flag, a flag this command does not
 * declare, a malformed or overflowing value, a value on a switch, and a
 * surplus or malformed positional each print the error and the usage
 * generated from the table to stderr, and the driver exits 2.
 * `--help`, `-h` and a leading `help` print the same usage to stdout
 * and exit 0. No driver reads its environment.
 */

#ifndef CCNUMA_CORE_CLI_HH
#define CCNUMA_CORE_CLI_HH

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace ccnuma::sim {
struct MachineConfig;
}

namespace ccnuma::core::cli {

using Target =
    std::variant<std::string*, std::uint64_t*, int*, std::vector<int>*,
                 bool*, std::vector<std::string>*, sim::MachineConfig*>;

/** One declared positional or flag. */
struct Arg {
    /// Flag name without "--", or a positional's name. An optional
    /// "=META" suffix names the value in the usage ("json=FILE"). A
    /// MachineConfig entry ("machine") declares --protocol and
    /// --dir-format, with fixed help; its own name and help are unused.
    std::string name;
    Target target;
    std::string help;
};

/** A driver's (or subcommand's) whole command line. */
struct Command {
    std::string name;    ///< As typed: "ccnuma_verify stress".
    std::string summary; ///< Printed under the usage line.
    std::vector<Arg> positionals;
    std::vector<Arg> flags;
    std::string footer = {}; ///< Printed after the flag table.
};

/// Parse argv (argv[0] skipped) against `cmd`. nullopt: every target
/// is filled, run the driver. Otherwise the driver returns the value:
/// 0 after printing the usage for help, 2 after a rejected argument.
std::optional<int> parse(const Command& cmd, int argc, char** argv);

/// The usage text generated from `cmd`'s table.
std::string usage(const Command& cmd);

/// Print "<cmd.name>: <what>" and the usage to stderr; returns 2. For
/// errors only the driver can see, such as exclusive flags.
int usageError(const Command& cmd, const std::string& what);

/// Strict u64 parse of a full string; returns false on any trailing
/// garbage, sign, overflow or empty input.
bool parseU64(const std::string& text, std::uint64_t& out);

/// Strict parse of a comma-separated u64 list ("1,8,32"); returns
/// false (leaving `out` untouched) on any malformed element, empty
/// element or empty input.
bool parseU64List(const std::string& text,
                  std::vector<std::uint64_t>& out);

} // namespace ccnuma::core::cli

#endif // CCNUMA_CORE_CLI_HH
