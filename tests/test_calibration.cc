/**
 * @file
 * Tests for TP calibration / nearest-mean decoding (Fig. 3 ranges,
 * Fig. 13 distributions).
 */

#include <gtest/gtest.h>

#include "channels/calibration.hh"

namespace ich
{
namespace
{

Calibration
fourLevelCal()
{
    std::vector<int> symbols;
    std::vector<double> tps;
    double means[4] = {12.0, 10.5, 9.0, 6.0};
    for (int s = 0; s < 4; ++s) {
        for (int r = 0; r < 5; ++r) {
            symbols.push_back(s);
            tps.push_back(means[s] + 0.05 * r - 0.1);
        }
    }
    return Calibration::fit(symbols, tps);
}

TEST(Calibration, FitComputesPerSymbolMeans)
{
    Calibration cal = fourLevelCal();
    EXPECT_NEAR(cal.meanUs(0), 12.0, 0.1);
    EXPECT_NEAR(cal.meanUs(3), 6.0, 0.1);
    EXPECT_GT(cal.stddevUs(0), 0.0);
}

TEST(Calibration, DecodeNearestMean)
{
    Calibration cal = fourLevelCal();
    EXPECT_EQ(cal.decode(12.1), 0);
    EXPECT_EQ(cal.decode(10.4), 1);
    EXPECT_EQ(cal.decode(8.8), 2);
    EXPECT_EQ(cal.decode(5.0), 3);
}

TEST(Calibration, DecodeAtMidpointConsistent)
{
    Calibration cal = fourLevelCal();
    // Just either side of the 9.0/6.0 midpoint (7.5).
    EXPECT_EQ(cal.decode(7.6), 2);
    EXPECT_EQ(cal.decode(7.4), 3);
}

TEST(Calibration, MinSeparation)
{
    Calibration cal = fourLevelCal();
    EXPECT_NEAR(cal.minSeparationUs(), 1.5, 0.15);
}

TEST(Calibration, FitRejectsBadInput)
{
    EXPECT_THROW(Calibration::fit({}, {}), std::invalid_argument);
    EXPECT_THROW(Calibration::fit({0}, {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(Calibration::fit({7}, {1.0}), std::invalid_argument);
    // All four symbols must be present.
    EXPECT_THROW(Calibration::fit({0, 1, 2}, {1.0, 2.0, 3.0}),
                 std::invalid_argument);
    // Labels range over [0, num_labels): the spy fits five levels.
    std::vector<int> five = {0, 1, 2, 3, 4};
    std::vector<double> tps = {1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_THROW(Calibration::fit(five, tps), std::invalid_argument);
    EXPECT_NO_THROW(Calibration::fit(five, tps, 5));
}

} // namespace
} // namespace ich
