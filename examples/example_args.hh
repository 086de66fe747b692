/**
 * @file
 * Positional-number parsing shared by the examples: a value that is
 * not a whole number, or lies outside its range, exits 2 naming the
 * argument (the same contract as `gnnperf run`'s options).
 */

#ifndef GNNPERF_EXAMPLES_EXAMPLE_ARGS_HH
#define GNNPERF_EXAMPLES_EXAMPLE_ARGS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/string_utils.hh"

namespace gnnperf {

/** argv[i] as an integer in [lo, hi], or `fallback` when absent. */
inline int64_t
intArg(int argc, char **argv, int i, const char *name, int64_t fallback,
       int64_t lo, int64_t hi)
{
    if (i >= argc)
        return fallback;
    int64_t v = 0;
    if (!parseInt(argv[i], v)) {
        std::fprintf(stderr, "%s: expected an integer, got '%s'\n", name,
                     argv[i]);
        std::exit(2);
    }
    if (v < lo || v > hi) {
        std::fprintf(stderr, "%s: %lld is outside [%lld, %lld]\n", name,
                     static_cast<long long>(v),
                     static_cast<long long>(lo),
                     static_cast<long long>(hi));
        std::exit(2);
    }
    return v;
}

} // namespace gnnperf

#endif // GNNPERF_EXAMPLES_EXAMPLE_ARGS_HH
