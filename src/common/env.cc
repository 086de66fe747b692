#include "common/env.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/string_utils.hh"

namespace gnnperf {

int64_t
envInt(const char *name, int64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    int64_t out = 0;
    if (!parseInt(v, out))
        gnnperf_fatal(name, "=", v, ": not an integer");
    return out;
}

int64_t
envInt(const char *name, int64_t fallback, int64_t lo, int64_t hi)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    const int64_t out = envInt(name, fallback);
    if (out < lo || out > hi)
        gnnperf_fatal(name, "=", v, ": outside [", lo, ", ", hi, "]");
    return out;
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return (v && *v) ? std::string(v) : fallback;
}

bool
fullScale()
{
    return iequals(envString("GNNPERF_SCALE", "smoke"), "full");
}

int64_t
envEpochs(int64_t fallback_smoke, int64_t fallback_full)
{
    return envInt("GNNPERF_EPOCHS",
                  fullScale() ? fallback_full : fallback_smoke, 1, 100000);
}

int64_t
envSeeds(int64_t fallback_smoke, int64_t fallback_full)
{
    return envInt("GNNPERF_SEEDS",
                  fullScale() ? fallback_full : fallback_smoke, 1, 1000);
}

int64_t
envFolds(int64_t fallback_smoke, int64_t fallback_full)
{
    return envInt("GNNPERF_FOLDS",
                  fullScale() ? fallback_full : fallback_smoke, 1, 10);
}

} // namespace gnnperf
