/**
 * @file
 * Other-microarchitecture tests (paper §7 "IChannels on other
 * Microarchitectures"): the authors confirmed that naively porting
 * IChannels to recent AMD processors does not work — AMD parts use
 * per-core LDO regulators, removing both the shared-rail serialization
 * and the slow multi-microsecond ramps the channels need.
 */

#include <gtest/gtest.h>

#include "channels/cores_channel.hh"
#include "channels/smt_channel.hh"
#include "channels/thread_channel.hh"
#include "chip/presets.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

ChannelConfig
zenConfig()
{
    ChannelConfig cfg;
    cfg.chip = presets::zenLike();
    cfg.freqGhz = 2.0;
    cfg.seed = 91;
    return cfg;
}

TEST(OtherUarch, ZenPresetShape)
{
    ChipConfig cfg = presets::zenLike();
    EXPECT_TRUE(cfg.pmu.perCoreVr);
    EXPECT_TRUE(test::sameVrStyle(cfg.pmu.vr, VrConfig::lowDropout()));
    EXPECT_FALSE(presets::hasAvx512(cfg));
}

TEST(OtherUarch, NaiveCrossCorePortFails)
{
    // No shared rail to serialize on: the receiver's timing carries no
    // information about the sender's class.
    IccCoresCovert ch(zenConfig());
    EXPECT_LT(ch.calibration().minSeparationUs(), 0.1);
}

TEST(OtherUarch, NaiveThreadPortBuriedInJitter)
{
    // LDO ramps are tens of nanoseconds: level spacing falls at/below
    // the measurement jitter, so intensity levels are not decodable.
    IccThreadCovert ch(zenConfig());
    EXPECT_LT(ch.calibration().minSeparationUs(), 0.05);
}

TEST(OtherUarch, NaiveSmtPortBuriedInJitter)
{
    IccSMTcovert ch(zenConfig());
    EXPECT_LT(ch.calibration().minSeparationUs(), 0.05);
}

TEST(OtherUarch, ZenStillHasFastVoltageTransitions)
{
    // The insight transfer the paper suggests: the mechanisms exist
    // (guardbands still move), they are just much faster/per-core —
    // adapting IChannels needs finer probes, not a different idea.
    Simulation sim(presets::zenLike());
    Chip &chip = sim.chip();
    double v0 = chip.pmu().voltsDomain(0);
    Program p;
    p.loop(InstClass::k256Heavy, 2000, 100);
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.eq().runUntil(fromMicroseconds(5));
    EXPECT_GT(chip.pmu().voltsDomain(0), v0); // its own domain ramped
    // Another core's domain is untouched.
    EXPECT_NEAR(chip.pmu().voltsDomain(1),
                chip.pmu().guardbandModel().baseVolts(chip.freqGhz()),
                1e-6);
}

} // namespace
} // namespace ich
