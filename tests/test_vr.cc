/**
 * @file
 * Tests for the voltage-regulator slew model: ramp timing, mid-ramp
 * queries, retargeting, PDN parameterizations.
 */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "pdn/vr.hh"

namespace ich
{
namespace
{

VrConfig
testConfig()
{
    VrConfig cfg;
    cfg.slewVoltsPerSecond = 1000.0; // 1 mV/us
    cfg.commandLatency = fromMicroseconds(1.0);
    cfg.settleTime = fromMicroseconds(0.5);
    return cfg;
}

TEST(VoltageRegulator, InitialVoltageStable)
{
    EventQueue eq;
    VoltageRegulator vr(eq, testConfig(), 0.75);
    EXPECT_DOUBLE_EQ(vr.volts(), 0.75);
    EXPECT_FALSE(vr.busy());
    eq.runUntil(fromMicroseconds(100));
    EXPECT_DOUBLE_EQ(vr.volts(), 0.75);
}

TEST(VoltageRegulator, RampCompletesAtSlewRate)
{
    EventQueue eq;
    VoltageRegulator vr(eq, testConfig(), 0.750);
    bool done = false;
    vr.setTarget(0.760, [&] { done = true; }); // +10 mV
    EXPECT_TRUE(vr.busy());
    // Expected: 1 us command + 10 us ramp + 0.5 us settle = 11.5 us.
    eq.runUntil(fromMicroseconds(11.4));
    EXPECT_FALSE(done);
    eq.runUntil(fromMicroseconds(11.6));
    EXPECT_TRUE(done);
    EXPECT_FALSE(vr.busy());
    EXPECT_DOUBLE_EQ(vr.volts(), 0.760);
}

TEST(VoltageRegulator, MidRampVoltageInterpolates)
{
    EventQueue eq;
    VoltageRegulator vr(eq, testConfig(), 0.750);
    vr.setTarget(0.760);
    // At t = 6 us: 1 us command + 5 us of ramping => +5 mV.
    eq.runUntil(fromMicroseconds(6.0));
    EXPECT_NEAR(vr.volts(), 0.755, 1e-4);
}

TEST(VoltageRegulator, DuringCommandLatencyVoltageUnchanged)
{
    EventQueue eq;
    VoltageRegulator vr(eq, testConfig(), 0.750);
    vr.setTarget(0.760);
    eq.runUntil(fromNanoseconds(900));
    EXPECT_DOUBLE_EQ(vr.volts(), 0.750);
}

TEST(VoltageRegulator, DownRampSymmetric)
{
    EventQueue eq;
    VoltageRegulator vr(eq, testConfig(), 0.760);
    bool done = false;
    vr.setTarget(0.750, [&] { done = true; });
    eq.runUntil(fromMicroseconds(11.6));
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(vr.volts(), 0.750);
}

TEST(VoltageRegulator, TransitionTimePrediction)
{
    EventQueue eq;
    VoltageRegulator vr(eq, testConfig(), 0.750);
    Time t = vr.transitionTime(0.760);
    EXPECT_EQ(t, fromMicroseconds(11.5));
}

TEST(VoltageRegulator, RetargetMidRampStartsFromInstantaneous)
{
    EventQueue eq;
    VoltageRegulator vr(eq, testConfig(), 0.750);
    vr.setTarget(0.760);
    eq.runUntil(fromMicroseconds(6.0)); // at ~0.755
    bool done = false;
    vr.setTarget(0.750, [&] { done = true; });
    // ~5 mV back down: 1 + 5 + 0.5 = 6.5 us more.
    eq.runUntil(fromMicroseconds(13.0));
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(vr.volts(), 0.750);
}

TEST(VoltageRegulator, PdnPresetsOrderedBySpeed)
{
    EventQueue eq;
    VoltageRegulator mb(eq, VrConfig::motherboard(), 0.75);
    VoltageRegulator ivr(eq, VrConfig::integrated(), 0.75);
    VoltageRegulator ldo(eq, VrConfig::lowDropout(), 0.75);
    Time t_mb = mb.transitionTime(0.76);
    Time t_ivr = ivr.transitionTime(0.76);
    Time t_ldo = ldo.transitionTime(0.76);
    EXPECT_GT(t_mb, t_ivr);  // Haswell FIVR faster than MBVR (Fig. 8a)
    EXPECT_GT(t_ivr, t_ldo); // LDO fastest (§7 mitigation)
    EXPECT_LT(t_ldo, fromMicroseconds(0.5)); // paper: <0.5 us
}

TEST(VoltageRegulator, JitterRequiresRng)
{
    EventQueue eq;
    VrConfig cfg = testConfig();
    cfg.commandJitter = fromNanoseconds(300);
    Rng rng(1);
    VoltageRegulator vr(eq, cfg, 0.75, &rng);
    Time base = fromMicroseconds(11.5);
    // With jitter, completion lands in [base, base+0.3us]; run repeated
    // transitions and check spread.
    Time first_done = 0;
    bool done = false;
    vr.setTarget(0.76, [&] { done = true; });
    while (!done)
        eq.runOne();
    first_done = eq.now();
    EXPECT_GE(first_done, base);
    EXPECT_LE(first_done, base + fromNanoseconds(301));
}

} // namespace
} // namespace ich
