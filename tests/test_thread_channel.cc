/**
 * @file
 * IccThreadCovert end-to-end tests (paper §4.1, §6.2).
 */

#include <gtest/gtest.h>

#include "channels/thread_channel.hh"
#include "chip/presets.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

ChannelConfig
baseConfig(ChipConfig chip)
{
    ChannelConfig cfg;
    cfg.chip = std::move(chip);
    cfg.seed = 7;
    return cfg;
}

TEST(ThreadChannel, NoiselessRoundTripIsErrorFree)
{
    IccThreadCovert ch(baseConfig(presets::cannonLake()));
    BitVec bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1};
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.receivedBits, bits);
    EXPECT_EQ(res.bitErrors, 0u);
    EXPECT_DOUBLE_EQ(res.ber, 0.0);
    // Pins every tpUs sample, the decoded bits and the rate exactly.
    EXPECT_EQ(test::transmitDigest(res), 0x45AF66F4E5EE59CCULL);
}

TEST(ThreadChannel, ThroughputMatchesPaperScale)
{
    IccThreadCovert ch(baseConfig(presets::cannonLake()));
    // §6.2: ~2.9 Kbps (2 bits per <40 us TX + 650 us reset).
    EXPECT_GT(ch.ratedThroughputBps(), 2500.0);
    EXPECT_LT(ch.ratedThroughputBps(), 3100.0);
    TransmitResult res = ch.transmit({1, 0, 1, 0});
    EXPECT_NEAR(res.throughputBps, ch.ratedThroughputBps(), 1.0);
}

TEST(ThreadChannel, CalibrationLevelsOrderedAndSeparated)
{
    IccThreadCovert ch(baseConfig(presets::cannonLake()));
    const Calibration &cal = ch.calibration();
    // Higher symbol = higher sender intensity = *shorter* probe TP
    // (voltage already ramped further).
    for (int s = 1; s < kNumSymbols; ++s)
        EXPECT_LT(cal.meanUs(s), cal.meanUs(s - 1));
    // Decodable separation (>2K TSC cycles ≈ 0.9 us at 2.2 GHz).
    EXPECT_GT(cal.minSeparationUs(), 0.8);
}

TEST(ThreadChannel, AllSymbolsSurviveLongPayload)
{
    IccThreadCovert ch(baseConfig(presets::cannonLake()));
    BitVec bits;
    for (int i = 0; i < 64; ++i)
        bits.push_back((i * 7 + 3) % 3 == 0 ? 1 : 0);
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.bitErrors, 0u);
    EXPECT_EQ(res.tpUs.size(), 32u);
}

TEST(ThreadChannel, WorksOnAvx2OnlyCoffeeLake)
{
    IccThreadCovert ch(baseConfig(presets::coffeeLake()));
    BitVec bits = {1, 1, 0, 1, 0, 0, 1, 0};
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.bitErrors, 0u);
}

TEST(ThreadChannel, WorksOnHaswellFivr)
{
    // Haswell's FIVR shrinks the TPs but the levels stay separable.
    IccThreadCovert ch(baseConfig(presets::haswell()));
    BitVec bits = {0, 1, 1, 0, 1, 0};
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.bitErrors, 0u);
}

TEST(ThreadChannel, OddBitCountPadsSilently)
{
    IccThreadCovert ch(baseConfig(presets::cannonLake()));
    BitVec bits = {1, 0, 1};
    TransmitResult res = ch.transmit(bits);
    EXPECT_EQ(res.receivedBits.size(), 3u);
    EXPECT_EQ(res.bitErrors, 0u);
}

TEST(ThreadChannel, DeterministicAcrossIdenticalRuns)
{
    ChannelConfig cfg = baseConfig(presets::cannonLake());
    IccThreadCovert a(cfg), b(cfg);
    BitVec bits = {1, 0, 0, 1, 1, 1};
    auto ra = a.transmit(bits);
    auto rb = b.transmit(bits);
    EXPECT_EQ(ra.tpUs, rb.tpUs);
}

} // namespace
} // namespace ich
