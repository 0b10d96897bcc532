#include "common/rng.hh"

#include <algorithm>
#include <cmath>

namespace ich
{

double
Rng::uniform()
{
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double
Rng::uniform(double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    if (stddev <= 0.0)
        return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
}

double
Rng::normalAtLeast(double mean, double stddev, double lo)
{
    return std::max(lo, normal(mean, stddev));
}

Time
Rng::exponentialInterarrival(double rate_per_second)
{
    if (rate_per_second <= 0.0)
        return ~Time{0};
    double seconds =
        std::exponential_distribution<double>(rate_per_second)(engine_);
    // Clamp to at least 1 ps so back-to-back arrivals still advance time.
    return std::max<Time>(1, fromSeconds(seconds));
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

Rng
Rng::fork()
{
    return Rng(engine_());
}

} // namespace ich
