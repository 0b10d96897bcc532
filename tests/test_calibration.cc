/**
 * @file
 * Tests for TP calibration / nearest-mean decoding (Fig. 3 ranges,
 * Fig. 13 distributions), and for the CovertLink transmit path that
 * packs bits into labels and decodes them with it.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/dfscovert.hh"
#include "baselines/netspectre.hh"
#include "baselines/powert.hh"
#include "baselines/turbocc.hh"
#include "channels/calibration.hh"
#include "chip/presets.hh"

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

/** A noiseless link whose reading is its label. */
class EchoLink : public CovertLink
{
  public:
    EchoLink() : CovertLink(2, 1, fromMicroseconds(100)) {}

  private:
    std::vector<double> measure(const std::vector<int> &labels,
                                bool /*with_noise*/) override
    {
        return std::vector<double>(labels.begin(), labels.end());
    }
};

TEST(CovertLink, PacksBitsLsbFirstAndZeroPads)
{
    EchoLink link;
    TransmitResult res = link.transmit({1, 0, 0, 1, 1});
    EXPECT_EQ(res.symbolsSent, (std::vector<int>{1, 2, 1}));
    EXPECT_EQ(res.symbolsReceived, res.symbolsSent);
    EXPECT_EQ(res.receivedBits, res.sentBits);
    EXPECT_EQ(res.bitErrors, 0u);
    EXPECT_DOUBLE_EQ(res.seconds, 3 * 100e-6);
    EXPECT_DOUBLE_EQ(link.ratedThroughputBps(), 2 / 100e-6);
}

TEST(CovertLink, BaselineCalibrationPointsTheWayThePhysicsDoes)
{
    // The RoundTripErrorFree seeds of each baseline's own tests.
    ChannelConfig ns_cfg;
    ns_cfg.chip = presets::cannonLake();
    ns_cfg.seed = 19;
    NetSpectre ns(ns_cfg);
    TurboCC tc(presets::cannonLake(), 23);
    DfsCovert dc(presets::cannonLake(), 29);
    PowerT pt(presets::cannonLake(), 31);
    // Bit 1 reads lower for NetSpectre (the probe finds the rail already
    // ramped, µs), TurboCC (AVX2 license drop, GHz) and PowerT (power
    // cap, GHz), and higher for DFScovert (governor raised, GHz).
    struct Case {
        const char *name;
        CovertLink &link;
        double sign; ///< expected sign of mean(1) - mean(0)
    };
    for (const Case &c : {Case{"NetSpectre", ns, -1.0},
                          Case{"TurboCC", tc, -1.0},
                          Case{"DFScovert", dc, +1.0},
                          Case{"PowerT", pt, -1.0}}) {
        SCOPED_TRACE(c.name);
        const Calibration &cal = c.link.calibration();
        double gap = cal.meanUs(1) - cal.meanUs(0);
        EXPECT_EQ(gap > 0.0 ? 1.0 : -1.0, c.sign);
        EXPECT_GT(std::fabs(gap),
                  5.0 * (cal.stddevUs(0) + cal.stddevUs(1)));
    }
}

} // namespace
} // namespace ich
