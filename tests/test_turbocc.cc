/**
 * @file
 * TurboCC baseline tests (paper §3, §6.2): a working but slow cross-core
 * frequency channel (~61 b/s), and the Key Conclusion 2 evidence that
 * the frequency drop is current-driven, not thermal.
 */

#include <gtest/gtest.h>

#include "baselines/turbocc.hh"
#include "chip/presets.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

TEST(TurboCC, RoundTripErrorFree)
{
    TurboCC tc(presets::cannonLake(), 23);
    BitVec bits = {1, 0, 1, 1, 0, 1};
    TransmitResult res = tc.transmit(bits);
    EXPECT_EQ(res.receivedBits, bits);
    EXPECT_EQ(res.bitErrors, 0u);
    // Pins every tpUs sample, the decoded bits and the rate exactly.
    EXPECT_EQ(test::transmitDigest(res), 0x7ACA0C4694F48470ULL);
    // A second transmit runs at the next run seed (run 3, after
    // calibration and the first transmit).
    EXPECT_EQ(test::transmitDigest(tc.transmit(bits)),
              0xDC3E7E76CF0E289EULL);
}

TEST(TurboCC, ThroughputNearPaperValue)
{
    // Fig. 12b: TurboCC ≈ 61 b/s.
    TurboCC tc(presets::cannonLake(), 23);
    EXPECT_GT(tc.ratedThroughputBps(), 45.0);
    EXPECT_LT(tc.ratedThroughputBps(), 80.0);
}

TEST(TurboCC, FrequencyDropIsNotThermal)
{
    // Key Conclusion 2: the license-driven frequency drop happens while
    // the junction temperature is far below Tjmax.
    ChipConfig cfg = presets::cannonLake();
    cfg.pmu.governor.policy = GovernorPolicy::kPerformance;
    Simulation sim(cfg);
    Chip &chip = sim.chip();
    Program p;
    p.loop(InstClass::k256Heavy, 100000, 100);
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.eq().runUntil(fromMilliseconds(2));
    EXPECT_LT(chip.freqGhz(), cfg.pmu.pstate.binsGhz.back());
    EXPECT_LT(chip.tjCelsius(), ThermalModel::kTjMaxCelsius - 20.0);
}

TEST(TurboCC, FrequencyRestoresAfterLicenseRelease)
{
    ChipConfig cfg = presets::cannonLake();
    cfg.pmu.governor.policy = GovernorPolicy::kPerformance;
    Simulation sim(cfg);
    Chip &chip = sim.chip();
    double f_max = chip.freqGhz();
    Program p;
    p.loop(InstClass::k256Heavy, 50000, 100); // ~2 ms at lic1 freq
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.eq().runUntil(fromMilliseconds(3));
    EXPECT_LT(chip.freqGhz(), f_max);
    // Decay (650 us) + license release delay (~12 ms) later: restored.
    sim.eq().runUntil(fromMilliseconds(25));
    EXPECT_NEAR(chip.freqGhz(), f_max, 1e-9);
}

} // namespace
} // namespace ich
