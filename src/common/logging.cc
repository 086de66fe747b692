#include "common/logging.hh"

#include <chrono>
#include <cstdio>

#include "common/env.hh"
#include "common/string_utils.hh"

namespace gnnperf {

namespace {

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Inform: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Panic: return "panic";
    }
    return "?";
}

LogLevel
initialLevel()
{
    const std::string name = envString("GNNPERF_LOG", "info");
    if (iequals(name, "debug"))
        return LogLevel::Debug;
    if (iequals(name, "warn"))
        return LogLevel::Warn;
    if (!iequals(name, "info")) {
        std::fprintf(stderr,
                     "[warn] GNNPERF_LOG=%s not one of debug|info|warn;"
                     " using info\n", name.c_str());
    }
    return LogLevel::Inform;
}

LogLevel g_minLevel = initialLevel();
bool g_timestamps = envInt("GNNPERF_LOG_TIME", 0) != 0;

const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

std::string
linePrefix(LogLevel level)
{
    std::string prefix;
    if (g_timestamps) {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - g_start).count();
        prefix += strprintf("[%9.3f] ", elapsed);
    }
    prefix += strprintf("[%s] ", levelTag(level));
    return prefix;
}

} // namespace

void
setLogLevel(LogLevel level)
{
    g_minLevel = level;
}

LogLevel
logLevel()
{
    return g_minLevel;
}

void
setLogTimestamps(bool on)
{
    g_timestamps = on;
}

bool
logTimestamps()
{
    return g_timestamps;
}

void
setVerbose(bool verbose)
{
    g_minLevel = verbose ? LogLevel::Inform : LogLevel::Warn;
}

bool
verbose()
{
    return g_minLevel <= LogLevel::Inform;
}

namespace detail {

void
log(LogLevel level, const std::string &msg)
{
    if (level < g_minLevel)
        return;
    std::fprintf(stderr, "%s%s\n", linePrefix(level).c_str(),
                 msg.c_str());
}

void
logAndDie(LogLevel level, const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "%s%s:%d: %s\n", linePrefix(level).c_str(),
                 file, line, msg.c_str());
    if (level == LogLevel::Panic)
        std::abort();
    std::exit(1);
}

} // namespace detail

} // namespace gnnperf
