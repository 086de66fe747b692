#include "common/random.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace gnnperf {

namespace {

uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    gnnperf_assert(n > 0, "uniformInt(0)");
    // Rejection sampling to avoid modulo bias.
    uint64_t threshold = (-n) % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    gnnperf_assert(lo <= hi, "uniformInt: lo > hi");
    return lo + static_cast<int64_t>(
        uniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

int64_t
Rng::poisson(double mean)
{
    gnnperf_assert(mean >= 0.0, "poisson: negative mean");
    if (mean < 30.0) {
        // Knuth's multiplicative method.
        double l = std::exp(-mean);
        int64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > l);
        return k - 1;
    }
    // Normal approximation for large means; adequate for workload
    // generation where only the distribution's shape matters.
    double v = normal(mean, std::sqrt(mean));
    return v < 0.0 ? 0 : static_cast<int64_t>(v + 0.5);
}

std::size_t
Rng::categorical(const std::vector<double> &weights)
{
    gnnperf_assert(!weights.empty(), "categorical: empty weights");
    double total = 0.0;
    for (double w : weights) {
        gnnperf_assert(w >= 0.0, "categorical: negative weight");
        total += w;
    }
    gnnperf_assert(total > 0.0, "categorical: all-zero weights");
    double r = uniform() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    return Rng(next());
}

PrefixSampler::PrefixSampler(std::vector<double> weights)
    : weights_(std::move(weights)), prefix_(weights_.size()), stale_(0)
{
    gnnperf_assert(!weights_.empty(), "categorical: empty weights");
    for (double w : weights_)
        gnnperf_assert(w >= 0.0, "categorical: negative weight");
}

void
PrefixSampler::add(std::size_t i, double delta)
{
    gnnperf_assert(i < weights_.size(), "PrefixSampler: index ", i,
                   " out of ", weights_.size());
    weights_[i] += delta;
    gnnperf_assert(weights_[i] >= 0.0, "categorical: negative weight");
    stale_ = std::min(stale_, i);
}

std::size_t
PrefixSampler::draw(Rng &rng)
{
    double acc = stale_ == 0 ? 0.0 : prefix_[stale_ - 1];
    for (std::size_t i = stale_; i < weights_.size(); ++i) {
        acc += weights_[i];
        prefix_[i] = acc;
    }
    stale_ = weights_.size();
    gnnperf_assert(prefix_.back() > 0.0, "categorical: all-zero weights");
    const double r = rng.uniform() * prefix_.back();
    const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), r);
    return std::min(static_cast<std::size_t>(it - prefix_.begin()),
                    weights_.size() - 1);
}

} // namespace gnnperf
