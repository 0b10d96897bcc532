/**
 * @file
 * Tests for the processor presets: the three §5.1 systems, the server
 * part and the Zen part.
 */

#include <gtest/gtest.h>

#include "chip/presets.hh"
#include "chip/simulation.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

TEST(Presets, CannonLakeShape)
{
    ChipConfig cfg = presets::cannonLake();
    EXPECT_EQ(cfg.numCores, 2);
    EXPECT_EQ(cfg.core.smtThreads, 2);
    EXPECT_TRUE(cfg.core.avxGate.present);
    EXPECT_TRUE(presets::hasAvx512(cfg));
    EXPECT_DOUBLE_EQ(cfg.pmu.limits.vccMaxVolts, 1.15);
    EXPECT_DOUBLE_EQ(cfg.pmu.limits.iccMaxAmps, 29.0);
    EXPECT_TRUE(test::sameVrStyle(cfg.pmu.vr, VrConfig::motherboard()));
}

TEST(Presets, CoffeeLakeShape)
{
    ChipConfig cfg = presets::coffeeLake();
    EXPECT_EQ(cfg.numCores, 8);
    EXPECT_EQ(cfg.core.smtThreads, 1); // i7-9700K has no SMT
    EXPECT_TRUE(cfg.core.avxGate.present);
    EXPECT_FALSE(presets::hasAvx512(cfg));
    EXPECT_DOUBLE_EQ(cfg.pmu.limits.vccMaxVolts, 1.27);
    EXPECT_DOUBLE_EQ(cfg.pmu.limits.iccMaxAmps, 100.0);
}

TEST(Presets, HaswellShape)
{
    ChipConfig cfg = presets::haswell();
    EXPECT_EQ(cfg.numCores, 4);
    EXPECT_EQ(cfg.core.smtThreads, 2);
    EXPECT_FALSE(cfg.core.avxGate.present); // pre-Skylake
    EXPECT_FALSE(presets::hasAvx512(cfg));
    EXPECT_TRUE(test::sameVrStyle(cfg.pmu.vr, VrConfig::integrated())); // FIVR
}

TEST(Presets, HaswellVrFasterThanMbvrParts)
{
    EXPECT_GT(presets::haswell().pmu.vr.slewVoltsPerSecond,
              presets::cannonLake().pmu.vr.slewVoltsPerSecond);
}

TEST(Presets, FrequencyBinsAscendAndCoverTurbo)
{
    // snapDownToBin()'s binary search relies on the ascending bins.
    for (const auto &cfg : test::allPresets()) {
        SCOPED_TRACE(cfg.name);
        const auto &bins = cfg.pmu.pstate.binsGhz;
        ASSERT_GE(bins.size(), 2u);
        for (std::size_t i = 1; i < bins.size(); ++i)
            EXPECT_GT(bins[i], bins[i - 1]);
        const auto &license = cfg.pmu.pstate.licenseMaxGhz;
        EXPECT_GE(bins.back(), license[0] - 1e-9);
        if (cfg.name == presets::zenLike().name) {
            // No AVX licenses: the three caps are equal.
            EXPECT_EQ(license[0], license[1]);
            EXPECT_EQ(license[1], license[2]);
        } else {
            EXPECT_GT(license[0], license[1]);
            EXPECT_GT(license[1], license[2]);
        }
    }
}

TEST(Presets, AllPresetsConstructAndIdle)
{
    for (const auto &cfg : test::allPresets()) {
        SCOPED_TRACE(cfg.name);
        Simulation sim(cfg);
        sim.runFor(fromMicroseconds(100));
        EXPECT_GT(sim.chip().vccVolts(), 0.5);
        EXPECT_LT(sim.chip().vccVolts(), 1.4);
        EXPECT_GT(sim.chip().freqGhz(), 0.7);
    }
}

TEST(Presets, Fig6VoltageAnchor)
{
    // Coffee Lake at 2 GHz: base voltage near the paper's 788 mV.
    ChipConfig cfg = presets::coffeeLake();
    EXPECT_NEAR(cfg.pmu.vf.volts(2.0), 0.788, 0.02);
}

} // namespace
} // namespace ich
