/**
 * @file
 * PowerT baseline tests (paper §6.2: ~122 b/s power-limit channel).
 */

#include <gtest/gtest.h>

#include "baselines/powert.hh"
#include "chip/presets.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

TEST(PowerT, RoundTripErrorFree)
{
    PowerT pt(presets::cannonLake(), 31);
    BitVec bits = {1, 0, 1, 0, 1, 1, 0};
    TransmitResult res = pt.transmit(bits);
    EXPECT_EQ(res.receivedBits, bits);
    EXPECT_EQ(res.bitErrors, 0u);
    // Pins every tpUs sample, the decoded bits and the rate exactly.
    EXPECT_EQ(test::transmitDigest(res), 0x9FA79282092B1DCFULL);
    // A second transmit runs at the next run seed (run 3, after
    // calibration and the first transmit); no PowerT reading
    // depends on the seed, so it repeats the first.
    EXPECT_EQ(test::transmitDigest(pt.transmit(bits)),
              0x9FA79282092B1DCFULL);
}

TEST(PowerT, ThroughputNearPaperValue)
{
    // Fig. 12b: PowerT ≈ 122 b/s.
    PowerT pt(presets::cannonLake(), 31);
    EXPECT_GT(pt.ratedThroughputBps(), 100.0);
    EXPECT_LT(pt.ratedThroughputBps(), 145.0);
}

TEST(PowerT, ChoosesLimitBetweenIdleAndBurn)
{
    PowerT pt(presets::cannonLake(), 31);
    pt.transmit({1}); // forces limit selection
    EXPECT_GT(pt.chosenLimitWatts(), 1.0);
    EXPECT_LT(pt.chosenLimitWatts(), 50.0);
}

} // namespace
} // namespace ich
