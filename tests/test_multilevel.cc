/**
 * @file
 * Multi-level throttling characterization tests (paper §5.5, Fig. 10,
 * Key Conclusion 4) — the core phenomenon behind IccThreadCovert.
 */

#include <gtest/gtest.h>

#include <map>

#include "test_util.hh"

namespace ich
{
namespace
{

using test::pinnedCannonLake;
using test::probeAfterUs;
using test::throttlePeriodUs;

ChipConfig
cfgAt(double freq)
{
    ChipConfig cfg = pinnedCannonLake(freq);
    cfg.pmu.vr.commandJitter = 0;
    return cfg;
}

// Fig. 10a: TP grows with the computational intensity of the class.
TEST(MultiLevel, TpGrowsWithIntensity)
{
    double prev = -1.0;
    for (auto cls : kAllInstClasses) {
        double tp = throttlePeriodUs(cfgAt(1.4), cls, 1.4);
        EXPECT_GE(tp, prev - 0.05)
            << "class " << toString(cls);
        if (traits(cls).guardbandLevel > 0) {
            EXPECT_GT(tp, 0.5);
        }
        prev = tp;
    }
}

// Fig. 10a: TP grows with core frequency (Equation 1: ΔV ∝ V·F).
TEST(MultiLevel, TpGrowsWithFrequency)
{
    std::vector<double> freqs = {1.0, 1.2, 1.4};
    double prev = 0.0;
    for (double f : freqs) {
        double tp = throttlePeriodUs(cfgAt(f), InstClass::k512Heavy, f);
        EXPECT_GT(tp, prev);
        prev = tp;
    }
}

// Fig. 10a: non-PHI classes show no throttling period.
TEST(MultiLevel, Level0ClassesNotThrottled)
{
    EXPECT_NEAR(throttlePeriodUs(cfgAt(1.4), InstClass::kScalar64, 1.4),
                0.0, 0.1);
    EXPECT_NEAR(throttlePeriodUs(cfgAt(1.4), InstClass::k128Light, 1.4),
                0.0, 0.1);
}

// Fig. 10b: the TP of a 512b_Heavy probe *decreases* as the preceding
// class's intensity increases (voltage already partially ramped).
TEST(MultiLevel, ProbeTpDecreasesWithPrecedingIntensity)
{
    double prev = 1e9;
    for (auto prelude : kAllInstClasses) {
        double us = probeAfterUs(cfgAt(1.4), prelude,
                                 InstClass::k512Heavy);
        EXPECT_LE(us, prev + 0.05) << "prelude " << toString(prelude);
        prev = us;
    }
}

// Fig. 10b / Key Conclusion 4: the probe TPs collapse onto exactly five
// distinct levels across the seven preceding classes.
TEST(MultiLevel, FiveDistinctProbeLevels)
{
    std::map<int, double> by_level;
    for (auto prelude : kAllInstClasses) {
        double us = probeAfterUs(cfgAt(1.4), prelude,
                                 InstClass::k512Heavy);
        int lvl = traits(prelude).guardbandLevel;
        if (by_level.count(lvl))
            EXPECT_NEAR(by_level[lvl], us, 0.2)
                << "same level must give same TP";
        else
            by_level[lvl] = us;
    }
    EXPECT_EQ(by_level.size(), 5u);
    // Adjacent levels separated by >2K TSC cycles (~0.9 us at 2.2 GHz),
    // the paper's decodability criterion (§6.3).
    double prev = 1e9;
    for (auto &[lvl, us] : by_level) {
        if (prev < 1e8) {
            EXPECT_GT(prev - us, 0.8);
        }
        prev = us;
    }
}

// Same-level prelude leaves (almost) nothing to ramp: probe runs
// unthrottled.
TEST(MultiLevel, SameLevelPreludeRemovesThrottle)
{
    double after_512h = probeAfterUs(cfgAt(1.4), InstClass::k512Heavy,
                                     InstClass::k512Heavy);
    Kernel probe = makeKernel(InstClass::k512Heavy, 100, 100);
    double nominal =
        toMicroseconds(test::kernelPicos(probe, 1.4));
    EXPECT_NEAR(after_512h, nominal, 0.2);
}

// Cross-generation comparison (Fig. 8a): Haswell's FIVR ramps faster,
// so its TP is shorter than the MBVR parts' at the same conditions.
TEST(MultiLevel, HaswellShorterTpThanCannonLake)
{
    ChipConfig hsw = presets::haswell();
    hsw.pmu.governor.policy = GovernorPolicy::kUserspace;
    hsw.pmu.governor.userspaceGhz = 1.4;
    hsw.pmu.vr.commandJitter = 0;
    double tp_hsw = throttlePeriodUs(hsw, InstClass::k256Heavy, 1.4);
    double tp_cnl =
        throttlePeriodUs(cfgAt(1.4), InstClass::k256Heavy, 1.4);
    EXPECT_LT(tp_hsw, tp_cnl);
    EXPECT_GT(tp_hsw, 0.1);
}

// Two cores running PHIs: longer TP than one core (Fig. 10a right half).
TEST(MultiLevel, TwoCorePhiExtendsTp)
{
    ChipConfig cfg = cfgAt(1.0);
    // One core alone.
    double solo = throttlePeriodUs(cfg, InstClass::k256Heavy, 1.0);

    // Two cores starting the same PHI simultaneously.
    Simulation sim(cfg);
    for (int c = 0; c < 2; ++c) {
        Program p;
        p.mark(0);
        p.loop(InstClass::k256Heavy, 400, 100);
        p.mark(1);
        sim.chip().core(c).thread(0).setProgram(std::move(p));
    }
    sim.chip().core(0).thread(0).start();
    sim.chip().core(1).thread(0).start();
    sim.run();
    const auto &recs = sim.chip().core(0).thread(0).records();
    double both = toMicroseconds(recs.at(1).time - recs.at(0).time) -
                  toMicroseconds(test::kernelPicos(
                      makeKernel(InstClass::k256Heavy, 400, 100), 1.0));
    EXPECT_GT(both, solo * 1.5);
}

} // namespace
} // namespace ich
