/**
 * @file
 * The option table behind every `gnnperf` subcommand.
 *
 * A subcommand declares each of its options once — name, type,
 * allowed range or choices, the GNNPERF_* variable it falls back to,
 * and a doc line — and parse() checks flags and env values against
 * that one declaration. Anything unknown, malformed or out of range
 * throws UsageError naming the option or variable; main() prints it
 * with the subcommand's usage and exits 2.
 */

#ifndef GNNPERF_TOOLS_GNNPERF_HH
#define GNNPERF_TOOLS_GNNPERF_HH

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"

namespace gnnperf {
namespace cli {

/** What an option's value is. */
enum class Type
{
    Flag,   ///< no value: `--all`
    Int,    ///< whole number in [min, max]
    Real,   ///< finite number in [min, max]
    Path,   ///< non-empty file name
    Choice, ///< one of `choices` (any case), kept in its declared case
    List,   ///< repeatable non-empty string: `--only A --only B`
};

/** One option of a subcommand. */
struct Option
{
    const char *name; ///< flag without "--"
    Type type;
    double min = 0.0; ///< Int/Real bounds, both inclusive
    double max = 0.0;
    std::span<const char *const> choices = {}; ///< Choice values
    const char *bare = nullptr; ///< Choice value of a bare `--name`
    const char *env = nullptr;  ///< GNNPERF_* fallback; the flag wins
    const char *help = "";      ///< one doc line for the usage text
};

/** Bad input: main() prints it with the subcommand usage, exits 2. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

class Args;

/** A subcommand: its option table and body (returns the exit code). */
struct Command
{
    const char *name;
    const char *synopsis; ///< positional part of the usage line
    const char *summary;  ///< what the command does, one line
    std::vector<Option> options;
    std::size_t minArgs = 0; ///< positional count bounds
    std::size_t maxArgs = 0;
    int (*body)(const Args &) = nullptr;
};

/** The checked values of one invocation. */
class Args
{
  public:
    bool has(const char *name) const { return values_.count(name) > 0; }

    std::string text(const char *name,
                     const std::string &fallback = "") const;
    int64_t integer(const char *name, int64_t fallback) const;
    double real(const char *name, double fallback) const;
    std::vector<std::string> list(const char *name) const;

    /** Non-option arguments, in order. */
    std::vector<std::string> positionals;

  private:
    friend Args parse(const Command &cmd, int argc, char **argv);
    std::map<std::string, std::vector<std::string>> values_;
};

/**
 * Check argv (argv[0] is the subcommand name) against the table, then
 * fill every option still unset from its env variable, checked the
 * same way.
 */
Args parse(const Command &cmd, int argc, char **argv);

/** Read and parse a JSON file; says why on stderr when it cannot. */
bool loadJson(const std::string &path, JsonValue &out);

// The subcommands, one per tools/cmd_*.cpp.
extern const Command kRun;
extern const Command kDiff;
extern const Command kTrace;
extern const Command kProf;

} // namespace cli
} // namespace gnnperf

#endif // GNNPERF_TOOLS_GNNPERF_HH
