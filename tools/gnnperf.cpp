/**
 * @file
 * gnnperf — run a configuration and read back what it wrote.
 *
 * Usage:
 *   gnnperf run [options]                  train, print the paper rows,
 *                                          write the requested artifacts
 *   gnnperf diff BASELINE CURRENT [opts]   the run-diff perf gate
 *   gnnperf trace summary|check|merge ...  execution-trace tools
 *   gnnperf prof summary|check FILE        counter-reconciliation tools
 *   gnnperf --version                      build provenance
 *
 * Running `gnnperf` alone prints every subcommand's option table.
 *
 * Exit codes: 0 = ok, 1 = a check or the diff gate failed (or a
 * fatal error during a run), 2 = bad usage or unreadable/unparsable
 * input.
 */

#include "gnnperf.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/buildinfo.hh"
#include "common/fs.hh"
#include "common/string_utils.hh"

namespace gnnperf {
namespace cli {

namespace {

const Command *const kCommands[] = {&kRun, &kDiff, &kTrace, &kProf};

std::string
choiceList(const Option &opt)
{
    return join(std::vector<std::string>(opt.choices.begin(),
                                         opt.choices.end()),
                "|");
}

/**
 * Check one value of `opt` given as `label` (the flag or the env
 * variable) and return it as stored: Choice values in their declared
 * case.
 */
std::string
checkValue(const Option &opt, const std::string &label,
           const std::string &value)
{
    switch (opt.type) {
      case Type::Flag:
        return value;
      case Type::Int:
      case Type::Real: {
        const bool is_int = opt.type == Type::Int;
        int64_t i = 0;
        double v = 0.0;
        if (is_int ? !parseInt(value, i) : !parseReal(value, v))
            throw UsageError(label + ": expected " +
                             (is_int ? "an integer" : "a number") +
                             ", got '" + value + "'");
        if (is_int)
            v = static_cast<double>(i);
        if (v < opt.min || v > opt.max)
            throw UsageError(strprintf("%s: %s is outside [%g, %g]",
                                       label.c_str(), value.c_str(),
                                       opt.min, opt.max));
        return value;
      }
      case Type::Path:
      case Type::List:
        if (value.empty())
            throw UsageError(label + ": needs a non-empty value");
        return value;
      case Type::Choice:
        for (const char *choice : opt.choices) {
            if (iequals(value, choice))
                return choice;
        }
        throw UsageError(label + ": '" + value + "' is not one of " +
                         choiceList(opt));
    }
    return value;
}

/** The value placeholder shown after the flag in the usage text. */
std::string
metavar(const Option &opt)
{
    switch (opt.type) {
      case Type::Flag: return "";
      case Type::Int: return " N";
      case Type::Real: return " F";
      case Type::Path: return " FILE";
      case Type::List: return " S";
      case Type::Choice:
        return strprintf(opt.bare != nullptr ? "[=%s]" : " %s",
                         choiceList(opt).c_str());
    }
    return "";
}

std::string
usage(const Command &cmd)
{
    std::string out = strprintf("usage: gnnperf %s %s\n  %s\n", cmd.name,
                                cmd.synopsis, cmd.summary);
    for (const Option &opt : cmd.options) {
        std::string help = opt.help;
        if (opt.type == Type::Int || opt.type == Type::Real)
            help += strprintf(" [%g..%g]", opt.min, opt.max);
        if (opt.type == Type::List)
            help += " (repeatable)";
        if (opt.env != nullptr)
            help += std::string(" (env ") + opt.env + ")";
        out += strprintf("    --%s%s\n        %s\n", opt.name,
                         metavar(opt).c_str(), help.c_str());
    }
    return out;
}

int
usageAll()
{
    std::fprintf(stderr, "usage: gnnperf COMMAND ... | gnnperf "
                         "--version\n\n");
    for (const Command *cmd : kCommands)
        std::fprintf(stderr, "%s\n", usage(*cmd).c_str());
    return 2;
}

} // namespace

std::string
Args::text(const char *name, const std::string &fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second.back();
}

int64_t
Args::integer(const char *name, int64_t fallback) const
{
    int64_t v = fallback;
    if (has(name))
        parseInt(text(name), v);
    return v;
}

double
Args::real(const char *name, double fallback) const
{
    double v = fallback;
    if (has(name))
        parseReal(text(name), v);
    return v;
}

std::vector<std::string>
Args::list(const char *name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
}

Args
parse(const Command &cmd, int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() <= 2 || arg.rfind("--", 0) != 0) {
            args.positionals.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(2, eq - 2);
        const auto opt = std::find_if(
            cmd.options.begin(), cmd.options.end(),
            [&](const Option &o) { return name == o.name; });
        if (opt == cmd.options.end())
            throw UsageError("unknown option --" + name);
        const std::string label = "--" + name;
        std::string value;
        if (eq != std::string::npos) {
            if (opt->type == Type::Flag)
                throw UsageError(label + ": takes no value");
            value = arg.substr(eq + 1);
        } else if (opt->type == Type::Flag) {
            value = "1";
        } else if (opt->bare != nullptr) {
            value = opt->bare;
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            throw UsageError(label + ": needs a value");
        }
        value = checkValue(*opt, label, value);
        auto &slot = args.values_[opt->name];
        if (opt->type != Type::List)
            slot.clear();
        slot.push_back(value);
    }
    for (const Option &opt : cmd.options) {
        if (opt.env == nullptr || args.has(opt.name))
            continue;
        const char *env = std::getenv(opt.env);
        if (env != nullptr && *env != '\0')
            args.values_[opt.name] = {checkValue(opt, opt.env, env)};
    }
    const std::size_t n = args.positionals.size();
    if (n < cmd.minArgs || n > cmd.maxArgs) {
        throw UsageError(n > cmd.maxArgs
                             ? "unexpected argument '" +
                                   args.positionals[cmd.maxArgs] + "'"
                             : "missing arguments");
    }
    return args;
}

bool
loadJson(const std::string &path, JsonValue &out)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "gnnperf: cannot read %s\n", path.c_str());
        return false;
    }
    std::string error;
    if (!parseJson(text, out, &error)) {
        std::fprintf(stderr, "gnnperf: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

} // namespace cli
} // namespace gnnperf

using namespace gnnperf;

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--version") == 0) {
        std::printf("%s\n", buildinfo::versionLine("gnnperf").c_str());
        return 0;
    }
    if (argc < 2)
        return cli::usageAll();
    for (const cli::Command *cmd : cli::kCommands) {
        if (std::strcmp(argv[1], cmd->name) != 0)
            continue;
        try {
            return cmd->body(cli::parse(*cmd, argc - 1, argv + 1));
        } catch (const cli::UsageError &e) {
            std::fprintf(stderr, "gnnperf %s: %s\n\n%s", cmd->name,
                         e.what(), cli::usage(*cmd).c_str());
            return 2;
        }
    }
    std::fprintf(stderr, "gnnperf: unknown command '%s'\n\n", argv[1]);
    return cli::usageAll();
}
