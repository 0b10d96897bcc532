/**
 * @file
 * DFScovert baseline tests (paper §6.2: ~20 b/s governor-modulation
 * channel — the slowest of the compared channels).
 */

#include <gtest/gtest.h>

#include "baselines/dfscovert.hh"
#include "chip/presets.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

TEST(DfsCovert, RoundTripErrorFree)
{
    DfsCovert dc(presets::cannonLake(), 29);
    BitVec bits = {1, 0, 0, 1, 1};
    TransmitResult res = dc.transmit(bits);
    EXPECT_EQ(res.receivedBits, bits);
    EXPECT_EQ(res.bitErrors, 0u);
    // Pins every tpUs sample, the decoded bits and the rate exactly.
    EXPECT_EQ(test::transmitDigest(res), 0x02159E2DDD5CF5FFULL);
}

TEST(DfsCovert, ThroughputNearPaperValue)
{
    // Fig. 12b: DFScovert ≈ 20 b/s.
    DfsCovert dc(presets::cannonLake(), 29);
    EXPECT_GT(dc.ratedThroughputBps(), 15.0);
    EXPECT_LT(dc.ratedThroughputBps(), 25.0);
}

TEST(DfsCovert, LongRunsDecodeCorrectly)
{
    DfsCovert dc(presets::cannonLake(), 29);
    BitVec bits = {0, 0, 1, 1, 1, 0};
    EXPECT_EQ(dc.transmit(bits).bitErrors, 0u);
}

} // namespace
} // namespace ich
