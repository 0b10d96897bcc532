/**
 * @file
 * Tests for the power-gate model (paper §5.4 / Key Conclusion 3: opening
 * the AVX gate costs 8–15 ns, ~0.1% of a throttling period).
 */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "pdn/power_gate.hh"

namespace ich
{
namespace
{

TEST(PowerGate, StartsClosedWhenPresent)
{
    EventQueue eq;
    Rng rng(1);
    PowerGate pg(eq, rng, PowerGateConfig{});
    EXPECT_TRUE(pg.closed());
}

TEST(PowerGate, OpenChargesWakeLatencyOnce)
{
    EventQueue eq;
    Rng rng(1);
    PowerGate pg(eq, rng, PowerGateConfig{});
    Time stall = pg.open();
    EXPECT_GE(stall, PowerGate::kWakeLatencyMin);
    EXPECT_LE(stall, PowerGate::kWakeLatencyMax);
    EXPECT_FALSE(pg.closed());
    EXPECT_EQ(pg.open(), 0u); // already open
    EXPECT_EQ(pg.openCount(), 1u);
}

TEST(PowerGate, AbsentGateNeverStalls_HaswellCase)
{
    EventQueue eq;
    Rng rng(1);
    PowerGateConfig cfg;
    cfg.present = false; // Haswell predates the AVX power gate
    PowerGate pg(eq, rng, cfg);
    EXPECT_FALSE(pg.closed());
    EXPECT_EQ(pg.open(), 0u);
    EXPECT_EQ(pg.openCount(), 0u);
}

TEST(PowerGate, ClosesAfterIdleDelay)
{
    EventQueue eq;
    Rng rng(1);
    PowerGate pg(eq, rng, PowerGateConfig{});
    pg.open();
    eq.runUntil(fromMicroseconds(31));
    EXPECT_TRUE(pg.closed());
}

TEST(PowerGate, TouchDefersClose)
{
    EventQueue eq;
    Rng rng(1);
    PowerGate pg(eq, rng, PowerGateConfig{});
    pg.open();
    eq.runUntil(fromMicroseconds(20));
    pg.touch(); // used again at t=20us
    eq.runUntil(fromMicroseconds(40));
    EXPECT_FALSE(pg.closed()); // close deferred to t=50us
    eq.runUntil(fromMicroseconds(51));
    EXPECT_TRUE(pg.closed());
}

TEST(PowerGate, ReopenAfterCloseStallsAgain)
{
    EventQueue eq;
    Rng rng(1);
    PowerGate pg(eq, rng, PowerGateConfig{});
    pg.open();
    eq.runUntil(fromMicroseconds(40));
    ASSERT_TRUE(pg.closed());
    EXPECT_GT(pg.open(), 0u);
    EXPECT_EQ(pg.openCount(), 2u);
}

// Regression: the idle-close countdown used to run from the *start* of
// a use period (the open() call), so a kernel longer than the 30 us
// idle-close delay had its gate closed underneath it and the next
// kernel absorbed a spurious wake stall. beginUse()/endUse() pin the
// gate for the whole kernel; the countdown starts at the end of use.
TEST(PowerGate, StaysOpenWhileInUse_FirstPeriodTruncationFix)
{
    EventQueue eq;
    Rng rng(1);
    PowerGate pg(eq, rng, PowerGateConfig{});

    // A 100 us kernel: much longer than the 30 us idle-close delay.
    EXPECT_GT(pg.beginUse(), 0u);
    eq.runUntil(fromMicroseconds(100));
    EXPECT_FALSE(pg.closed()); // pinned: no mid-kernel close
    pg.endUse();

    // Countdown runs from the end of use: still open 20 us later...
    eq.runUntil(fromMicroseconds(120));
    EXPECT_FALSE(pg.closed());
    EXPECT_EQ(pg.beginUse(), 0u); // back-to-back kernel: no spurious stall
    pg.endUse();
    EXPECT_EQ(pg.openCount(), 1u);

    // ...and the gate closes once the unit has been idle for the delay.
    eq.runUntil(fromMicroseconds(151));
    EXPECT_TRUE(pg.closed());
}

TEST(PowerGate, NestedUsersKeepTheGateOpen_SmtSharing)
{
    EventQueue eq;
    Rng rng(1);
    PowerGate pg(eq, rng, PowerGateConfig{});

    pg.beginUse(); // SMT thread 0
    pg.beginUse(); // SMT thread 1
    EXPECT_EQ(pg.users(), 2);
    eq.runUntil(fromMicroseconds(50));
    pg.endUse(); // thread 0 done; thread 1 still executing
    eq.runUntil(fromMicroseconds(100));
    EXPECT_FALSE(pg.closed());
    pg.endUse();
    eq.runUntil(fromMicroseconds(131));
    EXPECT_TRUE(pg.closed());
}

TEST(PowerGate, LazyCloseNeedsNoEvents)
{
    EventQueue eq;
    Rng rng(1);
    PowerGate pg(eq, rng, PowerGateConfig{});
    pg.open();
    pg.touch();
    pg.beginUse();
    pg.endUse();
    // The gate owns no timer events: idle closes are evaluated lazily.
    EXPECT_TRUE(eq.empty());
}

// Key Conclusion 3: the wake-up is ~0.1% of a 12-15 us throttle period.
TEST(PowerGate, WakeLatencyTinyVsThrottlePeriod)
{
    EventQueue eq;
    Rng rng(1);
    PowerGate pg(eq, rng, PowerGateConfig{});
    Time stall = pg.open();
    double frac = static_cast<double>(stall) /
                  static_cast<double>(fromMicroseconds(12.0));
    EXPECT_LT(frac, 0.002);
}

} // namespace
} // namespace ich
