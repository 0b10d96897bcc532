/**
 * @file
 * Tests for the online covert-channel detection subsystem (src/detect/):
 * count-min accuracy bounds on synthetic streams, detector
 * determinism (trial-level and --jobs), an attached DetectorBank never
 * perturbing the physics, attacker-vs-honest score separation, and the
 * adaptive attacker's sub-budget behavior.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chip/presets.hh"
#include "chip/simulation.hh"
#include "detect/detector.hh"
#include "detect/sketch.hh"
#include "detect/tenant.hh"
#include "exp/exp.hh"

namespace ich
{
namespace
{

/** Small, fast co-residency trial config shared by the tests. */
detect::TenantConfig
smallTenantConfig(std::uint64_t seed, bool attacker)
{
    detect::TenantConfig cfg;
    cfg.seed = seed;
    cfg.attackerPresent = attacker;
    cfg.payloadBits = 16;
    cfg.honestTenants = 2;
    return cfg;
}

exp::ScenarioSpec
detectSpec()
{
    exp::ScenarioSpec spec;
    spec.name = "detect-tenant";
    spec.description = "detector-vs-attacker unit scenario";
    spec.axes = {exp::axisLabeledValues(
        "attacker", {{"honest", 0.0}, {"attacker", 1.0}})};
    spec.trials = 2;
    spec.baseSeed = 7;
    spec.run = [](const exp::TrialContext &ctx) {
        return detect::runTenantTrial(
                   smallTenantConfig(ctx.seed,
                                     ctx.point.getInt("attacker") == 1))
            .metrics;
    };
    return spec;
}

// ------------------------------------------------------ count-min sketch

TEST(CountMinSketch, ExactModeBoundsTheDominantKey)
{
    detect::CountMinSketch cm(4, 512, 0xFEEDu);
    constexpr std::uint64_t kHeavy = 0xAB;
    for (int i = 0; i < 600; ++i)
        cm.update(kHeavy);
    for (std::uint64_t k = 1000; k < 1100; ++k)
        for (int i = 0; i < 4; ++i)
            cm.update(k);

    // Count-min never underestimates, and with 700 keys' worth of mass
    // spread over 512 counters per row the overestimate on the heavy
    // key stays small.
    EXPECT_GE(cm.estimate(kHeavy), 600.0);
    EXPECT_LE(cm.estimate(kHeavy), 600.0 * 1.10);
    for (std::uint64_t k = 1000; k < 1100; ++k)
        EXPECT_GE(cm.estimate(k), 4.0);
    EXPECT_DOUBLE_EQ(cm.totalWeight(), 600.0 + 400.0);
    EXPECT_EQ(cm.updates(), 1000u);
}

TEST(CountMinSketch, RejectsBadGeometry)
{
    EXPECT_THROW(detect::CountMinSketch(0, 16, 1), std::invalid_argument);
    EXPECT_THROW(detect::CountMinSketch(2, 0, 1), std::invalid_argument);
}

// ----------------------------------------------------- tenant campaigns

TEST(DetectTenant, ScoresSeparateAttackerFromHonestNoise)
{
    // Payload long enough for the sketch to pass its minimum-update
    // warm-up (a 16-bit transfer ends before 48 stream updates arrive).
    detect::TenantConfig cfg;
    cfg.seed = 11;
    cfg.payloadBits = 32;
    cfg.attackerPresent = false;
    detect::TenantResult honest = detect::runTenantTrial(cfg);
    cfg.attackerPresent = true;
    detect::TenantResult attacked = detect::runTenantTrial(cfg);

    EXPECT_GT(attacked.metrics.at("det_sketch_score"),
              honest.metrics.at("det_sketch_score"));
    EXPECT_GT(attacked.metrics.at("det_cusum_score"),
              honest.metrics.at("det_cusum_score"));
    // The attacker-present trial carries the channel's own metrics; the
    // honest arm must not.
    EXPECT_EQ(attacked.metrics.count("throughput_bps"), 1u);
    EXPECT_EQ(honest.metrics.count("throughput_bps"), 0u);
    EXPECT_GT(attacked.metrics.at("det_samples"), 0.0);
    EXPECT_GT(honest.metrics.at("det_samples"), 0.0);
}

TEST(DetectTenant, TrialsAreBitwiseDeterministic)
{
    for (bool attacker : {false, true}) {
        detect::TenantResult a =
            detect::runTenantTrial(smallTenantConfig(23, attacker));
        detect::TenantResult b =
            detect::runTenantTrial(smallTenantConfig(23, attacker));
        EXPECT_EQ(a.metrics, b.metrics);
    }
}

TEST(DetectTenant, JobsAreByteIdentical)
{
    const exp::ScenarioSpec spec = detectSpec();
    exp::RunnerOptions serial;
    serial.jobs = 1;
    exp::RunnerOptions pooled;
    pooled.jobs = 4;
    EXPECT_EQ(exp::jsonReport(exp::SweepRunner(serial).run(spec)),
              exp::jsonReport(exp::SweepRunner(pooled).run(spec)));
}

TEST(DetectTenant, AdaptiveAttackerStaysUnderTheBudget)
{
    detect::TenantConfig base;
    base.seed = 5;
    base.payloadBits = 32;
    // Budget chosen between the full-duty sketch score (~0.22) and the
    // low-duty floor, so the bisection has to actually back off.
    detect::FrontierPoint p =
        detect::adaptiveDutySearch(base, "sketch", 0.15, /*iters=*/3);
    ASSERT_TRUE(p.feasible);
    EXPECT_LE(p.score, 0.15);
    EXPECT_LT(p.duty, 1.0);
    EXPECT_GT(p.duty, 0.0);
    EXPECT_GT(p.throughputBps, 0.0);
}

// ------------------------------------------------- observer purity

/**
 * PHI work on two cores; returns 1 ms after the programs complete, so
 * the PDN settles and the guardband decays.
 */
void
driveWork(Simulation &sim, int marker)
{
    Chip &chip = sim.chip();
    for (int c = 0; c < 2; ++c) {
        Program p;
        p.mark(marker + c);
        p.loop(InstClass::k256Heavy, 2000, 100);
        p.idle(fromMicroseconds(30));
        p.loop(InstClass::k128Heavy, 1000, 100);
        HwThread &thr = chip.core(c).thread(0);
        thr.setProgram(std::move(p));
        thr.start();
    }
    sim.run(fromSeconds(1.0));
    sim.runFor(fromMilliseconds(1));
}

/**
 * Bit-exact rendering of the chip's *physics* — everything a program
 * or a channel could observe, but none of the event-queue bookkeeping
 * (executed-event counts, insertion sequences), which legitimately
 * differs when a detector bank adds its own observation ticks.
 */
std::string
physicsSignature(Simulation &sim)
{
    Chip &chip = sim.chip(); // tjCelsius() integrates lazily: non-const
    std::string sig;
    char buf[256];
    auto add = [&sig, &buf](int n) {
        sig.append(buf, static_cast<std::size_t>(n));
    };
    add(std::snprintf(buf, sizeof buf, "freq=%a volts=%a icc=%a tj=%a\n",
                      chip.freqGhz(), chip.vccVolts(), chip.iccAmps(),
                      chip.tjCelsius()));
    const CentralPmu &pmu = chip.pmu();
    add(std::snprintf(
        buf, sizeof buf, "pstates=%llu vreqs=%llu\n",
        static_cast<unsigned long long>(pmu.pstateTransitions()),
        static_cast<unsigned long long>(pmu.voltageRequests())));
    for (int c = 0; c < chip.coreCount(); ++c) {
        const Core &core = chip.core(c);
        add(std::snprintf(buf, sizeof buf, "core%d asserts=%llu gb=%d\n",
                          c,
                          static_cast<unsigned long long>(
                              core.throttle().assertCount()),
                          pmu.grantedLevel(c)));
        for (int t = 0; t < core.numThreads(); ++t) {
            const PerfCounters &pc = core.thread(t).counters();
            add(std::snprintf(
                buf, sizeof buf, " t%d clk=%llu inst=%llu\n", t,
                static_cast<unsigned long long>(pc.clkUnhalted()),
                static_cast<unsigned long long>(pc.instRetired())));
        }
    }
    return sig;
}

TEST(DetectSnapshot, AttachedBankNeverPerturbsThePhysics)
{
    // A sim that never had a bank and one carrying a full bank must
    // execute identical physics — detectors are pure observers.
    Simulation plain(presets::coffeeLake(), 123);
    driveWork(plain, 100);

    Simulation watched(presets::coffeeLake(), 123);
    detect::DetectorBank bank(watched.chip());
    driveWork(watched, 100);

    EXPECT_EQ(physicsSignature(watched), physicsSignature(plain));
    EXPECT_GT(bank.detector(0).samples(), 0u);
}

} // namespace
} // namespace ich
