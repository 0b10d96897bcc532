/**
 * @file
 * Tests for P-state helpers and license mapping (paper §5.3).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "pmu/pstate.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

/** The linear-scan rule the binary search replaced, kept as its oracle. */
std::size_t
linearIndexAtOrBelow(double ghz, const std::vector<double> &bins)
{
    std::size_t idx = 0;
    for (std::size_t i = 0; i < bins.size(); ++i)
        if (bins[i] <= ghz + 1e-9)
            idx = i;
    return idx;
}

/** The linear-scan snap the binary search replaced. */
double
linearSnapDownToBin(double ghz, const std::vector<double> &bins)
{
    double best = bins.empty() ? ghz : bins.front();
    for (double b : bins)
        if (b <= ghz + 1e-9)
            best = std::max(best, b);
    return best;
}

TEST(Pstate, LicenseForGbLevel)
{
    EXPECT_EQ(licenseForGbLevel(0), 0); // scalar / 128b-light
    EXPECT_EQ(licenseForGbLevel(1), 0); // 128b-heavy
    EXPECT_EQ(licenseForGbLevel(2), 1); // 256b-light → LVL1
    EXPECT_EQ(licenseForGbLevel(3), 1); // 256b-heavy / 512b-light
    EXPECT_EQ(licenseForGbLevel(4), 2); // 512b-heavy → LVL2
}

TEST(Pstate, SnapDownToBin)
{
    std::vector<double> bins = {0.8, 1.0, 1.2, 1.4};
    EXPECT_DOUBLE_EQ(snapDownToBin(1.4, bins), 1.4);
    EXPECT_DOUBLE_EQ(snapDownToBin(1.35, bins), 1.2);
    EXPECT_DOUBLE_EQ(snapDownToBin(5.0, bins), 1.4);
    EXPECT_DOUBLE_EQ(snapDownToBin(0.5, bins), 0.8); // clamp to lowest
    EXPECT_EQ(snapDownToBin(2.345, {}), 2.345);      // no bins: the query
}

TEST(Pstate, SnapHandlesFloatNoise)
{
    std::vector<double> bins = {0.8, 1.0, 1.2};
    EXPECT_DOUBLE_EQ(snapDownToBin(1.2 - 1e-12, bins), 1.2);
}

TEST(Pstate, BinarySearchMatchesTheLinearScanOnEveryPreset)
{
    for (const auto &cfg : test::allPresets()) {
        SCOPED_TRACE(cfg.name);
        const auto &bins = cfg.pmu.pstate.binsGhz;
        // Every bin, both sides of the 1e-9 tolerance and on its edge,
        // every midpoint, and queries past either end.
        std::vector<double> queries = {
            bins.front() - 0.1, bins.back() + 0.1,
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(), std::nan("")};
        for (std::size_t i = 0; i < bins.size(); ++i) {
            for (double d : {0.0, -5e-10, 5e-10, -1e-9, -2e-9, 2e-9})
                queries.push_back(bins[i] + d);
            if (i + 1 < bins.size())
                queries.push_back((bins[i] + bins[i + 1]) / 2);
        }
        for (double q : queries) {
            EXPECT_EQ(binIndexAtOrBelow(q, bins),
                      linearIndexAtOrBelow(q, bins))
                << q;
            EXPECT_EQ(snapDownToBin(q, bins), linearSnapDownToBin(q, bins))
                << q;
        }
    }
}

} // namespace
} // namespace ich
