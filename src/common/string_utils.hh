/**
 * @file
 * Small string formatting helpers used by reports and benches.
 */

#ifndef GNNPERF_COMMON_STRING_UTILS_HH
#define GNNPERF_COMMON_STRING_UTILS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gnnperf {

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Format seconds as "x.xxxx s" or "x.xx hr" like the paper's tables. */
std::string formatDuration(double seconds);

/** Format a byte count with a binary suffix (KiB/MiB/GiB). */
std::string formatBytes(std::size_t bytes);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Left/right padding to a fixed width. */
std::string padLeft(const std::string &s, std::size_t width);
std::string padRight(const std::string &s, std::size_t width);

/** Case-insensitive string equality (ASCII). */
bool iequals(const std::string &a, const std::string &b);

/**
 * Escape a string for embedding inside a JSON string literal: quote,
 * backslash and control characters become their \-escapes.
 */
std::string jsonEscape(const std::string &s);

/**
 * Escape a CSV field (RFC 4180): fields containing a comma, quote or
 * newline are wrapped in quotes with embedded quotes doubled.
 */
std::string csvEscape(const std::string &s);

/**
 * Strict number parsing for flags and env knobs: the whole string must
 * be one base-10 integer (or one finite decimal number) that fits the
 * type — no blanks, no trailing text, no overflow. Returns false and
 * leaves `out` untouched otherwise.
 */
bool parseInt(const std::string &s, int64_t &out);
bool parseReal(const std::string &s, double &out);

} // namespace gnnperf

#endif // GNNPERF_COMMON_STRING_UTILS_HH
