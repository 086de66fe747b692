/**
 * @file
 * Deterministic pseudo-random number generation for gnnperf.
 *
 * All stochastic components (dataset generators, weight initialisation,
 * dropout, data shuffling) draw from a Rng instance so that every
 * experiment is reproducible from a single seed. The generator is a
 * xoshiro256** seeded through SplitMix64, which is fast, has a long
 * period, and is identical across platforms (unlike std::mt19937
 * distribution adaptors, whose outputs are implementation-defined for
 * some distributions).
 */

#ifndef GNNPERF_COMMON_RANDOM_HH
#define GNNPERF_COMMON_RANDOM_HH

#include <cstdint>
#include <vector>

namespace gnnperf {

/**
 * Deterministic random number generator with the distribution helpers
 * the rest of the library needs.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0 */
    uint64_t uniformInt(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal deviate (Box–Muller, cached pair). */
    double normal();

    /** Normal deviate with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Poisson-distributed integer with given mean (Knuth / PTRS). */
    int64_t poisson(double mean);

    /**
     * Sample an index from an unnormalised weight vector.
     * @pre weights non-empty, all non-negative, at least one positive.
     */
    std::size_t categorical(const std::vector<double> &weights);

    /** Fisher–Yates shuffle of an index-like vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(static_cast<uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** A derived generator for an independent stream. */
    Rng fork();

  private:
    uint64_t s_[4];
    bool hasCachedNormal_ = false;
    double cachedNormal_ = 0.0;
};

/**
 * Rng::categorical over weights that grow between draws, without a
 * full scan per draw. It keeps the running sums in the order
 * categorical adds the weights, so each sum is the same double
 * categorical's scan reaches, and the last is its total. A draw is the
 * first index whose running sum exceeds uniform() · total (clamped to
 * the last index, as categorical falls through), found by binary
 * search: bit for bit the index categorical returns for the same Rng
 * state. An update re-sums only from the lowest changed index, at the
 * next draw.
 */
class PrefixSampler
{
  public:
    /** @pre weights non-empty and all non-negative. */
    explicit PrefixSampler(std::vector<double> weights);

    /** Add `delta` to weight i. @pre the weight stays non-negative. */
    void add(std::size_t i, double delta);

    /**
     * Draw as `rng.categorical(weights())` would.
     * @pre at least one weight positive.
     */
    std::size_t draw(Rng &rng);

    const std::vector<double> &weights() const { return weights_; }

  private:
    std::vector<double> weights_;
    std::vector<double> prefix_;
    std::size_t stale_;  ///< prefix_[i] is current for i < stale_
};

} // namespace gnnperf

#endif // GNNPERF_COMMON_RANDOM_HH
