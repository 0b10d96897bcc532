/**
 * @file
 * Instruction-class side-channel spy tests (paper §6.5).
 */

#include <gtest/gtest.h>

#include "channels/spy.hh"
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
    cfg.seed = 17;
    return cfg;
}

TEST(Spy, RejectsThreadVantage)
{
    EXPECT_THROW(InstructionSpy(baseConfig(), ChannelKind::kThread),
                 std::invalid_argument);
}

TEST(Spy, RejectsChipsWithoutResources)
{
    ChannelConfig cfg = baseConfig();
    cfg.chip = presets::coffeeLake(); // no SMT
    EXPECT_THROW(InstructionSpy(cfg, ChannelKind::kSmt),
                 std::invalid_argument);
    ChannelConfig one = baseConfig();
    one.chip.numCores = 1;
    EXPECT_THROW(InstructionSpy(one, ChannelKind::kCores),
                 std::invalid_argument);
}

TEST(Spy, SmtVantageInfersVictimLevels)
{
    InstructionSpy spy(baseConfig(), ChannelKind::kSmt);
    std::vector<InstClass> victim = {
        InstClass::k512Heavy, InstClass::kScalar64,
        InstClass::k256Heavy, InstClass::k128Heavy,
        InstClass::k256Light, InstClass::k512Heavy,
        InstClass::kScalar64, InstClass::k256Heavy,
    };
    SpyResult res = spy.observe(victim);
    ASSERT_EQ(res.inferredLevels.size(), victim.size());
    EXPECT_GE(res.levelAccuracy, 0.85);
    // The spy measures with the SMT channel's own receiver: pin its
    // raw per-transaction excess on a fresh channel, bit for bit.
    EXPECT_EQ(test::samplesDigest(
                  makeChannel(ChannelKind::kSmt, baseConfig())
                      ->runClasses(victim, /*with_noise=*/false)),
              0xDCE36C568FB91838ULL);
}

TEST(Spy, CoresVantageInfersVictimLevels)
{
    InstructionSpy spy(baseConfig(), ChannelKind::kCores);
    std::vector<InstClass> victim = {
        InstClass::k256Heavy, InstClass::k512Heavy,
        InstClass::k128Heavy, InstClass::kScalar64,
        InstClass::k512Heavy, InstClass::k256Light,
    };
    SpyResult res = spy.observe(victim);
    EXPECT_GE(res.levelAccuracy, 0.80);
    // Likewise the cores channel's delayed probe.
    EXPECT_EQ(test::samplesDigest(
                  makeChannel(ChannelKind::kCores, baseConfig())
                      ->runClasses(victim, /*with_noise=*/false)),
              0x9456B5EC1939028DULL);
}

TEST(Spy, SharedLevelClassesIndistinguishable)
{
    // 256b-heavy and 512b-light share a guardband level: the spy sees
    // the *level*, not the exact class — inferred levels must match.
    InstructionSpy spy(baseConfig(), ChannelKind::kSmt);
    SpyResult res = spy.observe(
        {InstClass::k256Heavy, InstClass::k512Light});
    ASSERT_EQ(res.inferredLevels.size(), 2u);
    EXPECT_EQ(res.actualLevels[0], res.actualLevels[1]);
    EXPECT_EQ(res.inferredLevels[0], res.inferredLevels[1]);
}

TEST(Spy, ImprovedThrottlingBlindsSmtSpy)
{
    ChannelConfig cfg = baseConfig();
    cfg.chip.core.throttle.perThread = true;
    InstructionSpy spy(cfg, ChannelKind::kSmt);
    std::vector<InstClass> victim = {
        InstClass::k512Heavy, InstClass::kScalar64,
        InstClass::k256Heavy, InstClass::k128Heavy,
        InstClass::k512Heavy, InstClass::k256Light,
        InstClass::kScalar64, InstClass::k128Heavy,
        InstClass::k256Heavy, InstClass::k512Heavy,
    };
    SpyResult res = spy.observe(victim);
    // With no cross-thread signal the spy cannot beat chance by much.
    EXPECT_LT(res.levelAccuracy, 0.6);
}

} // namespace
} // namespace ich
