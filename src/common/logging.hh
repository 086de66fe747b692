/**
 * @file
 * Logging and error-handling primitives in the gem5 style.
 *
 * panic()  — an internal invariant was violated (a gnnperf bug); aborts.
 * fatal()  — the user asked for something impossible (bad config); exits.
 * warn()   — something is questionable but execution can continue.
 * inform() — status messages for the user.
 * debug()  — development chatter, off unless GNNPERF_LOG=debug.
 *
 * The minimum emitted level defaults to Inform and can be set at
 * runtime (setLogLevel) or from the environment: GNNPERF_LOG=
 * debug|info|warn. Set GNNPERF_LOG_TIME=1 (or setLogTimestamps) to
 * prefix each line with seconds since process start.
 */

#ifndef GNNPERF_COMMON_LOGGING_HH
#define GNNPERF_COMMON_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace gnnperf {

/** Severity of a log message, least severe first. */
enum class LogLevel { Debug, Inform, Warn, Fatal, Panic };

namespace detail {

/** Emit a formatted log line; terminates the process for Fatal/Panic. */
[[noreturn]] void logAndDie(LogLevel level, const char *file, int line,
                            const std::string &msg);

/** Emit a non-fatal log line. */
void log(LogLevel level, const std::string &msg);

/** Stream-compose a message from variadic arguments. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Minimum level that is emitted (default Inform, or GNNPERF_LOG). */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/** Prefix log lines with seconds since process start. */
void setLogTimestamps(bool on);
bool logTimestamps();

/**
 * Whether inform() messages are printed (default true). Kept as a
 * compatibility shim over setLogLevel: verbose on == Inform,
 * verbose off == Warn.
 */
void setVerbose(bool verbose);
bool verbose();

} // namespace gnnperf

/** Abort: an internal invariant was violated. */
#define gnnperf_panic(...)                                                   \
    ::gnnperf::detail::logAndDie(::gnnperf::LogLevel::Panic, __FILE__,       \
        __LINE__, ::gnnperf::detail::composeMessage(__VA_ARGS__))

/** Exit(1): the user requested an impossible configuration. */
#define gnnperf_fatal(...)                                                   \
    ::gnnperf::detail::logAndDie(::gnnperf::LogLevel::Fatal, __FILE__,       \
        __LINE__, ::gnnperf::detail::composeMessage(__VA_ARGS__))

/** Warn but continue. */
#define gnnperf_warn(...)                                                    \
    ::gnnperf::detail::log(::gnnperf::LogLevel::Warn,                        \
        ::gnnperf::detail::composeMessage(__VA_ARGS__))

/** Informational message (suppressed when verbosity is off). */
#define gnnperf_inform(...)                                                  \
    ::gnnperf::detail::log(::gnnperf::LogLevel::Inform,                      \
        ::gnnperf::detail::composeMessage(__VA_ARGS__))

/**
 * Debug chatter (suppressed unless GNNPERF_LOG=debug). The level is
 * checked before the message is composed, so disabled debug lines
 * only cost the comparison.
 */
#define gnnperf_debug(...)                                                   \
    do {                                                                     \
        if (::gnnperf::logLevel() <= ::gnnperf::LogLevel::Debug) {           \
            ::gnnperf::detail::log(::gnnperf::LogLevel::Debug,               \
                ::gnnperf::detail::composeMessage(__VA_ARGS__));             \
        }                                                                    \
    } while (false)

/** Cheap always-on invariant check with a message. */
#define gnnperf_assert(cond, ...)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            gnnperf_panic("assertion failed: " #cond " — ",                  \
                          ::gnnperf::detail::composeMessage(__VA_ARGS__));   \
        }                                                                    \
    } while (false)

#endif // GNNPERF_COMMON_LOGGING_HH
