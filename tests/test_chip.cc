/**
 * @file
 * Chip-level tests: TSC invariance, activity reporting, measurement
 * points, power-gate integration (Fig. 8b/c first-iteration delta).
 */

#include <gtest/gtest.h>

#include "os/phi_app.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

using test::pinnedCannonLake;
using test::quietChip;

TEST(Chip, TscCountsAtBaseClockRegardlessOfCoreFreq)
{
    for (double f : {1.0, 2.2}) {
        Simulation sim(quietChip(f));
        Chip &chip = sim.chip();
        sim.eq().runUntil(fromMicroseconds(100));
        // 100 us at tscGhz=2.2 => 220000 cycles, independent of f.
        EXPECT_NEAR(static_cast<double>(chip.tscNow()), 220000.0, 2.0);
    }
}

TEST(Chip, TscRoundTrips)
{
    Simulation sim(quietChip());
    Chip &chip = sim.chip();
    Cycles c = 123456;
    Time t = chip.tscToTime(c);
    sim.eq().runUntil(t);
    EXPECT_NEAR(static_cast<double>(chip.tscNow()),
                static_cast<double>(c), 2.0);
}

/** Every entry of the chip's activity summary equals a fresh pass over
 *  that core's threads. */
::testing::AssertionResult
summaryIsExact(const Chip &chip)
{
    const std::vector<CoreActivity> &act = chip.coreActivity();
    if (act.size() != static_cast<std::size_t>(chip.coreCount()))
        return ::testing::AssertionFailure()
               << "summary has " << act.size() << " entries";
    for (CoreId c = 0; c < chip.coreCount(); ++c)
        if (!(act[c] == chip.core(c).activity()))
            return ::testing::AssertionFailure()
                   << "stale summary entry for core " << c;
    return ::testing::AssertionSuccess();
}

/** Dispatch events one at a time up to @p until, checking the summary
 *  after each. @return true when any core was seen active. */
bool
runCheckingSummary(Simulation &sim, Time until)
{
    bool saw_active = false;
    while (sim.eq().nextEventTime() <= until) {
        sim.eq().runOne();
        EXPECT_TRUE(summaryIsExact(sim.chip())) << "t=" << sim.eq().now();
        if (::testing::Test::HasFailure())
            return saw_active;
        for (const CoreActivity &a : sim.chip().coreActivity())
            saw_active = saw_active || a.active;
    }
    return saw_active;
}

TEST(Chip, CoreActivityReportsRunningClass)
{
    {
        Simulation sim(quietChip(1.0));
        Chip &chip = sim.chip();
        Program p;
        p.loop(InstClass::k256Heavy, 1000, 100);
        chip.core(1).thread(0).setProgram(std::move(p));
        chip.core(1).thread(0).start();
        sim.eq().runUntil(fromMicroseconds(10));
        const std::vector<CoreActivity> &act = chip.coreActivity();
        EXPECT_FALSE(act[0].active);
        EXPECT_TRUE(act[1].active);
        EXPECT_DOUBLE_EQ(act[1].cdynNf,
                         chip.config().core.cdynBaseNf +
                             traits(InstClass::k256Heavy).deltaCdynNf);
        EXPECT_EQ(act[1].activeGbLevel, 3);
        EXPECT_TRUE(summaryIsExact(chip));
    }

    // Every step kind on both SMT threads of both cores, app PHI bursts
    // and turbo P-state transitions: the summary must equal a fresh
    // pass after every single event.
    ChipConfig cfg = presets::cannonLake();
    cfg.pmu.governor.policy = GovernorPolicy::kPerformance;
    ASSERT_GE(cfg.numCores, 2);
    ASSERT_EQ(cfg.core.smtThreads, 2);
    Simulation sim(cfg, 7);
    Chip &chip = sim.chip();
    int calls = 0;
    {
        Program p;
        p.loop(InstClass::k256Heavy, 3000, 100);
        p.idle(fromMicroseconds(30));
        p.mark(1);
        p.waitUntilTsc(chip.tscAt(fromMicroseconds(120)));
        p.call([&] {
            // Mid-dispatch: the wait step just ended in this event.
            EXPECT_TRUE(summaryIsExact(chip));
            ++calls;
            chip.core(1).thread(1).start(); // a step starts a thread
        });
        p.loop(InstClass::k512Heavy, 1500, 100);
        chip.core(0).thread(0).setProgram(std::move(p));
    }
    {
        Program p;
        p.mark(2);
        p.loop(InstClass::kScalar64, 4000, 100);
        p.call([&] {
            EXPECT_TRUE(summaryIsExact(chip));
            ++calls;
        });
        p.idle(fromMicroseconds(50));
        p.loop(InstClass::k128Heavy, 2000, 100);
        chip.core(0).thread(1).setProgram(std::move(p));
    }
    {
        Program p;
        p.waitUntilTsc(chip.tscAt(fromMicroseconds(40)));
        p.loop(InstClass::k512Heavy, 2000, 100);
        p.mark(3);
        p.idle(fromMicroseconds(20));
        p.loop(InstClass::k256Light, 2000, 100);
        chip.core(1).thread(0).setProgram(std::move(p));
    }
    {
        Program p;
        p.loop(InstClass::k256Heavy, 1000, 100);
        p.mark(4);
        p.call([&] {
            EXPECT_TRUE(summaryIsExact(chip));
            ++calls;
        });
        chip.core(1).thread(1).setProgram(std::move(p));
    }
    PhiAppConfig app_cfg;
    app_cfg.phiRatePerSec = 20000.0;
    PhiApp app(chip, sim.rng(), app_cfg, 1, 1);
    app.start(fromMicroseconds(600));
    chip.core(0).thread(0).start();
    chip.core(0).thread(1).start();
    chip.core(1).thread(0).start();
    ASSERT_TRUE(summaryIsExact(chip));

    EXPECT_TRUE(runCheckingSummary(sim, fromMilliseconds(2)));
    if (HasFailure())
        return;
    for (int c = 0; c < 2; ++c)
        for (int t = 0; t < 2; ++t)
            EXPECT_TRUE(chip.core(c).thread(t).done()) << c << "/" << t;
    EXPECT_EQ(calls, 3);
    EXPECT_GT(app.burstsInjected(), 0u);
    EXPECT_GE(chip.pmu().pstateTransitions(), 1u);
}

TEST(Chip, IccGrowsWithActivity)
{
    Simulation sim(quietChip(1.0));
    Chip &chip = sim.chip();
    double icc_idle = chip.iccAmps();
    Program p;
    p.loop(InstClass::k512Heavy, 2000, 100);
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.eq().runUntil(fromMicroseconds(20));
    EXPECT_GT(chip.iccAmps(), icc_idle);
    EXPECT_GT(chip.powerWatts(), 0.0);
}

TEST(Chip, TjCelsiusAdvancesThermalState)
{
    Simulation sim(quietChip(1.0));
    Chip &chip = sim.chip();
    Program p;
    p.loop(InstClass::k512Heavy, 2000000, 100);
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.eq().runUntil(fromMilliseconds(50));
    double t = chip.tjCelsius();
    EXPECT_GT(t, ThermalModel::kAmbientCelsius);
    EXPECT_LT(t, ThermalModel::kTjMaxCelsius);
}

// Fig. 8b: on parts with an AVX power gate, the first iteration of an
// AVX2 loop is ~8-15 ns longer than subsequent iterations.
TEST(Chip, FirstAvxIterationPaysGateWakeup)
{
    ChipConfig cfg = quietChip(3.0); // secure mode: isolate the PG cost
    Simulation sim(cfg);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loopChunked(InstClass::k256Heavy, 3, 1, /*tag=*/0, 300);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    const auto &recs = thr.records();
    ASSERT_EQ(recs.size(), 3u);
    // records are per-iteration completion times; start was at ~0.
    Time it1 = recs[0].time;
    Time it2 = recs[1].time - recs[0].time;
    Time it3 = recs[2].time - recs[1].time;
    double d1 = toNanoseconds(it1) - toNanoseconds(it2);
    EXPECT_GE(d1, 7.0);  // wake-up cost visible on iteration 1
    EXPECT_LE(d1, 16.0);
    EXPECT_NEAR(toNanoseconds(it2), toNanoseconds(it3), 0.5);
}

// Fig. 8c: Haswell has no AVX power gate — all iterations equal.
TEST(Chip, HaswellHasNoFirstIterationDelta)
{
    ChipConfig cfg = presets::haswell();
    cfg.pmu.secureMode = true;
    cfg.pmu.vr.commandJitter = 0;
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 3.0;
    Simulation sim(cfg);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loopChunked(InstClass::k256Heavy, 3, 1, 0, 300);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    const auto &recs = thr.records();
    Time it1 = recs[0].time;
    Time it2 = recs[1].time - recs[0].time;
    EXPECT_NEAR(toNanoseconds(it1), toNanoseconds(it2), 1.0);
}

TEST(Chip, ThrottleAssertReleaseBalance)
{
    Simulation sim(pinnedCannonLake(1.4));
    Chip &chip = sim.chip();
    Program p;
    for (int i = 0; i < 3; ++i) {
        p.loop(InstClass::k512Heavy, 400, 100);
        p.idle(fromMicroseconds(800)); // past reset-time each round
    }
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.run(fromMilliseconds(10));
    EXPECT_FALSE(chip.core(0).throttle().throttled());
    EXPECT_EQ(chip.core(0).throttle().assertCount(), 3u);
}

} // namespace
} // namespace ich
