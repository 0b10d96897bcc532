/**
 * @file
 * Tests for the RAPL-style power limiter (PowerT substrate).
 */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "common/ticker.hh"
#include "pmu/power_limit.hh"

namespace ich
{
namespace
{

TEST(PowerLimiter, DisabledNeverEvaluates)
{
    EventQueue eq;
    Ticker ticker(eq);
    PowerLimitConfig cfg; // enabled = false
    PowerLimiter pl(ticker, cfg, {1.0, 2.0, 3.0}, [] { return 100.0; },
                    nullptr);
    eq.runUntil(fromMilliseconds(100));
    EXPECT_EQ(pl.evaluations(), 0u);
    EXPECT_DOUBLE_EQ(pl.capGhz(), 3.0);
}

TEST(PowerLimiter, OverBudgetLowersCapEachInterval)
{
    EventQueue eq;
    Ticker ticker(eq);
    PowerLimitConfig cfg;
    cfg.enabled = true;
    cfg.limitWatts = 10.0;
    cfg.evalInterval = fromMilliseconds(4);
    int changes = 0;
    PowerLimiter pl(ticker, cfg, {1.0, 2.0, 3.0}, [] { return 20.0; },
                    [&] { ++changes; });
    eq.runUntil(fromMilliseconds(4.5));
    EXPECT_DOUBLE_EQ(pl.capGhz(), 2.0);
    eq.runUntil(fromMilliseconds(8.5));
    EXPECT_DOUBLE_EQ(pl.capGhz(), 1.0);
    eq.runUntil(fromMilliseconds(20));
    EXPECT_DOUBLE_EQ(pl.capGhz(), 1.0); // floor
    EXPECT_EQ(changes, 2);
}

TEST(PowerLimiter, UnderBudgetRaisesCapWithHysteresis)
{
    EventQueue eq;
    Ticker ticker(eq);
    PowerLimitConfig cfg;
    cfg.enabled = true;
    cfg.limitWatts = 10.0;
    cfg.evalInterval = fromMilliseconds(4);
    double power = 20.0;
    PowerLimiter pl(ticker, cfg, {1.0, 2.0, 3.0}, [&] { return power; },
                    nullptr);
    eq.runUntil(fromMilliseconds(4.5));
    ASSERT_DOUBLE_EQ(pl.capGhz(), 2.0);
    // 9 W is under the limit but above 0.85*10 => hold.
    power = 9.0;
    eq.runUntil(fromMilliseconds(8.5));
    EXPECT_DOUBLE_EQ(pl.capGhz(), 2.0);
    // 5 W is comfortably under => raise.
    power = 5.0;
    eq.runUntil(fromMilliseconds(12.5));
    EXPECT_DOUBLE_EQ(pl.capGhz(), 3.0);
}

TEST(PowerLimiter, EmptyBinsThrow)
{
    EventQueue eq;
    Ticker ticker(eq);
    EXPECT_THROW(PowerLimiter(ticker, PowerLimitConfig{}, {}, nullptr,
                              nullptr),
                 std::invalid_argument);
}

} // namespace
} // namespace ich
