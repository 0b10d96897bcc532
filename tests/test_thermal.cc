/**
 * @file
 * Tests for the RC thermal model, including the Key Conclusion 2
 * timescale separation: thermals move in seconds, throttling in
 * microseconds.
 */

#include <gtest/gtest.h>

#include "thermal/thermal_model.hh"

namespace ich
{
namespace
{

TEST(Thermal, StartsAtAmbient)
{
    ThermalModel tm;
    EXPECT_DOUBLE_EQ(tm.celsius(), ThermalModel::kAmbientCelsius);
    EXPECT_FALSE(tm.overTjMax());
}

TEST(Thermal, ConvergesToSteadyState)
{
    ThermalModel tm;
    double watts = 18.0;
    double t_inf = 35.0 + watts * 1.4; // 60.2 C
    tm.update(fromSeconds(60.0), watts);
    EXPECT_NEAR(tm.celsius(), t_inf, 0.1);
}

TEST(Thermal, MicrosecondPowerBurstBarelyMovesTemperature)
{
    // Key Conclusion 2: a PHI burst of tens of microseconds cannot be a
    // thermal event — temperature rises by millidegrees at most.
    ThermalModel tm;
    tm.update(fromMicroseconds(50), 30.0);
    EXPECT_LT(tm.celsius() - 35.0, 0.01);
}

TEST(Thermal, MonotoneRiseUnderConstantPower)
{
    ThermalModel tm;
    double prev = tm.celsius();
    for (int s = 1; s <= 5; ++s) {
        tm.update(fromSeconds(s), 20.0);
        EXPECT_GT(tm.celsius(), prev);
        prev = tm.celsius();
    }
}

TEST(Thermal, CoolsBackTowardAmbient)
{
    ThermalModel tm;
    tm.update(fromSeconds(20), 25.0);
    double hot = tm.celsius();
    tm.update(fromSeconds(60), 0.0);
    EXPECT_LT(tm.celsius(), hot);
    EXPECT_NEAR(tm.celsius(), 35.0, 1.0);
}

TEST(Thermal, TypicalClientLoadStaysFarBelowTjmax)
{
    // Fig. 7b: junction temperature sits near 60 C while Tjmax is 100 C.
    ThermalModel tm;
    tm.update(fromSeconds(120), 18.0);
    EXPECT_GT(tm.celsius(), 55.0);
    EXPECT_LT(tm.celsius(), 65.0);
    EXPECT_FALSE(tm.overTjMax());
}

TEST(Thermal, NonAdvancingUpdateKeepsState)
{
    ThermalModel tm;
    tm.update(fromSeconds(10), 20.0);
    double t = tm.celsius();
    tm.update(fromSeconds(10), 99.0); // same timestamp: no integration
    EXPECT_DOUBLE_EQ(tm.celsius(), t);
}

} // namespace
} // namespace ich
