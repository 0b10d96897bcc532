#include "pmu/pstate.hh"

#include <algorithm>

namespace ich
{

int
licenseForGbLevel(int gb_level)
{
    if (gb_level >= 4)
        return 2; // 512-bit heavy: LVL2
    if (gb_level >= 2)
        return 1; // 256-bit and up: LVL1
    return 0;
}

std::size_t
binIndexAtOrBelow(double ghz, const std::vector<double> &bins_ghz)
{
    // partition_point on `b <= limit`, not upper_bound on `limit < b`: a
    // NaN query then passes no bin and lands on the lowest one.
    double limit = ghz + 1e-9;
    auto above =
        std::partition_point(bins_ghz.begin(), bins_ghz.end(),
                             [limit](double b) { return b <= limit; });
    return above == bins_ghz.begin()
               ? 0
               : static_cast<std::size_t>(above - bins_ghz.begin()) - 1;
}

double
snapDownToBin(double ghz, const std::vector<double> &bins_ghz)
{
    if (bins_ghz.empty())
        return ghz;
    return bins_ghz[binIndexAtOrBelow(ghz, bins_ghz)];
}

} // namespace ich
