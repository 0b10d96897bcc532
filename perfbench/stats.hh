/**
 * @file
 * Order statistics for run summaries. quartiles() follows Python's
 * statistics.quantiles(values, n=4) (the "exclusive" method), which is
 * how the benchmark's steadiness is judged across runs, so a run's own
 * spread figures read the same way.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <array>
#include <vector>

namespace perfbench
{

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** {q1, q2, q3}; all equal to the value for fewer than two values. */
inline std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.size() < 2) {
        const double x = v.empty() ? 0.0 : v[0];
        return {x, x, x};
    }
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    std::array<double, 3> q{};
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
    }
    return q;
}

/** (q3 - q1) / median: the spread the benchmark's bounds are held to. */
inline double
iqrShare(const std::vector<double> &v)
{
    const double mid = median(v);
    if (mid == 0.0)
        return 0.0;
    const auto q = quartiles(v);
    return (q[2] - q[0]) / mid;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
