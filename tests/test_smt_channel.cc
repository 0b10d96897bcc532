/**
 * @file
 * IccSMTcovert end-to-end tests (paper §4.2, §6.1: evaluated on Cannon
 * Lake only — Coffee Lake i7-9700K has no SMT).
 */

#include <gtest/gtest.h>

#include "channels/smt_channel.hh"
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
    cfg.seed = 11;
    return cfg;
}

TEST(SmtChannel, RequiresSmtPreset)
{
    ChannelConfig cfg;
    cfg.chip = presets::coffeeLake(); // no SMT
    EXPECT_THROW(IccSMTcovert{cfg}, std::invalid_argument);
}

TEST(SmtChannel, NoiselessRoundTripIsErrorFree)
{
    IccSMTcovert ch(baseConfig());
    BitVec bits = {1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1};
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.receivedBits, bits);
    EXPECT_EQ(res.bitErrors, 0u);
    // Pins every tpUs sample, the decoded bits and the rate exactly.
    EXPECT_EQ(test::transmitDigest(res), 0xEB6E9A457BB7915CULL);
}

TEST(SmtChannel, CalibrationLevelsIncreaseWithIntensity)
{
    IccSMTcovert ch(baseConfig());
    const Calibration &cal = ch.calibration();
    // The sibling's stall window grows with the sender's intensity:
    // higher symbol => longer excess.
    for (int s = 1; s < kNumSymbols; ++s)
        EXPECT_GT(cal.meanUs(s), cal.meanUs(s - 1));
    EXPECT_GT(cal.minSeparationUs(), 0.5);
}

TEST(SmtChannel, ThroughputMatchesPaperScale)
{
    IccSMTcovert ch(baseConfig());
    EXPECT_GT(ch.ratedThroughputBps(), 2500.0);
    EXPECT_LT(ch.ratedThroughputBps(), 3100.0);
}

TEST(SmtChannel, WorksOnHaswellSmt)
{
    ChannelConfig cfg;
    cfg.chip = presets::haswell();
    cfg.seed = 3;
    IccSMTcovert ch(cfg);
    BitVec bits = {1, 1, 0, 0, 1, 0};
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.bitErrors, 0u);
}

TEST(SmtChannel, ImprovedThrottlingKillsChannel)
{
    ChannelConfig cfg = baseConfig();
    cfg.chip.core.throttle.perThread = true; // §7 mitigation
    IccSMTcovert ch(cfg);
    const Calibration &cal = ch.calibration();
    // No sibling-visible stall: all levels collapse to ~0 excess.
    EXPECT_LT(cal.minSeparationUs(), 0.2);
}

} // namespace
} // namespace ich
