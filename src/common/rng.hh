/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every stochastic component (measurement jitter, OS noise arrivals,
 * concurrent-application PHI injection) draws from one seeded Rng so an
 * entire experiment is reproducible from a single seed.
 */

#ifndef ICH_COMMON_RNG_HH
#define ICH_COMMON_RNG_HH

#include <cstdint>
#include <random>

#include "common/types.hh"

namespace ich
{

/**
 * Thin deterministic wrapper around std::mt19937_64 with the sampling
 * helpers the simulator needs.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

    /** Re-seed the generator. */
    void seed(std::uint64_t s) { engine_.seed(s); }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Normal sample with the given mean/stddev. */
    double normal(double mean, double stddev);

    /**
     * Normal sample truncated at @p lo (values below are clamped).
     * Used for non-negative latency jitter.
     */
    double normalAtLeast(double mean, double stddev, double lo);

    /** Exponential inter-arrival sample for a Poisson process (rate /s). */
    Time exponentialInterarrival(double rate_per_second);

    /** Bernoulli trial with probability @p p. */
    bool chance(double p);

    /** Fork an independent sub-stream (for per-component determinism). */
    Rng fork();

  private:
    std::mt19937_64 engine_;
};

} // namespace ich

#endif // ICH_COMMON_RNG_HH
