/**
 * @file
 * IccCoresCovert end-to-end tests (paper §4.3).
 */

#include <gtest/gtest.h>

#include "channels/cores_channel.hh"
#include "chip/presets.hh"
#include "mitigations/mitigations.hh"
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
    cfg.seed = 13;
    return cfg;
}

TEST(CoresChannel, RequiresTwoCores)
{
    ChannelConfig cfg = baseConfig();
    cfg.chip.numCores = 1;
    EXPECT_THROW(IccCoresCovert{cfg}, std::invalid_argument);
}

TEST(CoresChannel, NoiselessRoundTripIsErrorFree)
{
    IccCoresCovert ch(baseConfig());
    BitVec bits = {0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0};
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.receivedBits, bits);
    EXPECT_EQ(res.bitErrors, 0u);
    // Pins every tpUs sample, the decoded bits and the rate exactly.
    EXPECT_EQ(test::transmitDigest(res), 0x5BB3BC2B0EC170E0ULL);
}

TEST(CoresChannel, CalibrationLevelsIncreaseWithSenderIntensity)
{
    IccCoresCovert ch(baseConfig());
    const Calibration &cal = ch.calibration();
    // Receiver waits for the sender's transition: higher sender level
    // => later release => longer probe.
    for (int s = 1; s < kNumSymbols; ++s)
        EXPECT_GT(cal.meanUs(s), cal.meanUs(s - 1));
    EXPECT_GT(cal.minSeparationUs(), 0.5);
}

TEST(CoresChannel, ThroughputMatchesPaperScale)
{
    IccCoresCovert ch(baseConfig());
    EXPECT_GT(ch.ratedThroughputBps(), 2500.0);
    EXPECT_LT(ch.ratedThroughputBps(), 3100.0);
}

TEST(CoresChannel, WorksOnEightCoreCoffeeLake)
{
    ChannelConfig cfg;
    cfg.chip = presets::coffeeLake();
    cfg.seed = 5;
    IccCoresCovert ch(cfg);
    BitVec bits = {1, 0, 0, 1, 1, 0};
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.bitErrors, 0u);
}

TEST(CoresChannel, PerCoreVrKillsChannel)
{
    ChannelConfig cfg = baseConfig();
    cfg.chip = mitigations::withPerCoreVr(cfg.chip);
    IccCoresCovert ch(cfg);
    const Calibration &cal = ch.calibration();
    // Independent rails: receiver timing independent of sender level.
    EXPECT_LT(cal.minSeparationUs(), 0.1);
}

TEST(CoresChannel, SecureModeKillsChannel)
{
    ChannelConfig cfg = baseConfig();
    cfg.chip = mitigations::withSecureMode(cfg.chip);
    IccCoresCovert ch(cfg);
    const Calibration &cal = ch.calibration();
    EXPECT_LT(cal.minSeparationUs(), 0.05);
}

} // namespace
} // namespace ich
