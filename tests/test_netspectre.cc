/**
 * @file
 * NetSpectre baseline tests (paper §3, Fig. 12a: IChannels achieves 2×
 * its throughput because NetSpectre sends 1 bit per transaction).
 */

#include <gtest/gtest.h>

#include "baselines/netspectre.hh"
#include "channels/thread_channel.hh"
#include "chip/presets.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

ChannelConfig
baseConfig()
{
    ChannelConfig cfg;
    cfg.chip = presets::cannonLake();
    cfg.seed = 19;
    return cfg;
}

TEST(NetSpectre, RoundTripErrorFree)
{
    NetSpectre ns(baseConfig());
    BitVec bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 0};
    TransmitResult res = ns.transmit(bits);
    EXPECT_EQ(res.receivedBits, bits);
    EXPECT_EQ(res.bitErrors, 0u);
    // Pins every tpUs sample, the decoded bits and the rate exactly.
    EXPECT_EQ(test::transmitDigest(res), 0xA1F7C94E105BDAE0ULL);
}

TEST(NetSpectre, OneBitPerTransaction)
{
    NetSpectre ns(baseConfig());
    TransmitResult res = ns.transmit({1, 0, 1, 0});
    // 4 bits => 4 transactions => 4 TP samples.
    EXPECT_EQ(res.tpUs.size(), 4u);
}

TEST(NetSpectre, IChannelsDoublesThroughput)
{
    // Fig. 12a: same transaction pacing, two bits instead of one.
    ChannelConfig cfg = baseConfig();
    NetSpectre ns(cfg);
    IccThreadCovert ich(cfg);
    EXPECT_NEAR(ich.ratedThroughputBps() / ns.ratedThroughputBps(), 2.0,
                0.01);
}

TEST(NetSpectre, ThroughputNearPaperValue)
{
    // Table 2 lists NetSpectre's gadget at ~1.5 kb/s.
    NetSpectre ns(baseConfig());
    EXPECT_GT(ns.ratedThroughputBps(), 1200.0);
    EXPECT_LT(ns.ratedThroughputBps(), 1600.0);
}

TEST(NetSpectre, AlternatingAndRunsPatterns)
{
    NetSpectre ns(baseConfig());
    BitVec runs = {1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0};
    EXPECT_EQ(ns.transmit(runs).bitErrors, 0u);
}

} // namespace
} // namespace ich
