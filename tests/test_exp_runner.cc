/**
 * @file
 * Tests for the SweepRunner: determinism from the base seed,
 * parallel-equals-serial equivalence, overrides, and error handling.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "channels/thread_channel.hh"
#include "chip/presets.hh"
#include "common/rng.hh"
#include "exp/report.hh"
#include "exp/runner.hh"

namespace ich
{
namespace exp
{
namespace
{

/** Cheap stochastic trial: metrics depend only on (point, seed). */
ScenarioSpec
rngSpec()
{
    ScenarioSpec spec;
    spec.name = "rng-grid";
    spec.description = "pure-Rng grid for runner tests";
    spec.axes = {axis("mu", {0.0, 5.0, 9.0}), axis("sigma", {1.0, 3.0})};
    spec.trials = 4;
    spec.baseSeed = 123;
    spec.run = [](const TrialContext &ctx) {
        Rng rng(ctx.seed);
        double acc = 0.0;
        for (int i = 0; i < 100; ++i)
            acc += rng.normal(ctx.point.get("mu"),
                              ctx.point.get("sigma"));
        MetricMap m;
        m["sum"] = acc;
        m["first_uniform"] = Rng(ctx.seed).uniform();
        return m;
    };
    return spec;
}

TEST(Runner, ResolveJobs)
{
    EXPECT_EQ(resolveJobs(4), 4);
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_GE(resolveJobs(-3), 1);
}

TEST(Runner, ShapeAndSeedSchedule)
{
    RunnerOptions opts;
    opts.jobs = 1;
    SweepResult r = SweepRunner(opts).run(rngSpec());
    EXPECT_EQ(r.points.size(), 6u);
    EXPECT_EQ(r.trials.size(), 24u);
    EXPECT_EQ(r.aggregates.size(), 6u);
    for (std::size_t i = 0; i < r.trials.size(); ++i) {
        EXPECT_EQ(r.trials[i].pointIndex, i / 4);
        EXPECT_EQ(r.trials[i].trial, static_cast<int>(i % 4));
        EXPECT_EQ(r.trials[i].seed, deriveTrialSeed(123, i));
    }
    for (const auto &pa : r.aggregates)
        EXPECT_EQ(pa.metrics.at("sum").count, 4u);
}

TEST(Runner, SameSeedSameAggregates)
{
    RunnerOptions opts;
    opts.jobs = 2;
    SweepResult a = SweepRunner(opts).run(rngSpec());
    SweepResult b = SweepRunner(opts).run(rngSpec());
    EXPECT_EQ(jsonReport(a), jsonReport(b));
}

TEST(Runner, DifferentSeedDiffers)
{
    RunnerOptions opts;
    opts.jobs = 1;
    opts.seed = 999;
    SweepResult a = SweepRunner(RunnerOptions{}).run(rngSpec());
    SweepResult b = SweepRunner(opts).run(rngSpec());
    EXPECT_EQ(b.baseSeed, 999u);
    EXPECT_NE(jsonReport(a), jsonReport(b));
}

TEST(Runner, ParallelEqualsSerialByteIdentical)
{
    RunnerOptions serial;
    serial.jobs = 1;
    RunnerOptions parallel;
    parallel.jobs = 4;
    SweepResult a = SweepRunner(serial).run(rngSpec());
    SweepResult b = SweepRunner(parallel).run(rngSpec());
    EXPECT_EQ(a.jobs, 1);
    EXPECT_EQ(b.jobs, 4);
    EXPECT_EQ(jsonReport(a), jsonReport(b));
    EXPECT_EQ(csvReport(a), csvReport(b));
    EXPECT_EQ(textReport(a), textReport(b));
}

// End-to-end: a real covert-channel trial grid must also aggregate
// identically on 1 and 4 workers (the Simulation is seed-reproducible).
TEST(Runner, ParallelEqualsSerialWithRealSimulation)
{
    ScenarioSpec spec;
    spec.name = "sim-grid";
    spec.axes = {axis("irq_per_s", {0.0, 4000.0})};
    spec.trials = 2;
    spec.baseSeed = 7;
    spec.run = [](const TrialContext &ctx) {
        ChannelConfig cfg;
        cfg.chip = presets::cannonLake();
        cfg.seed = ctx.seed;
        cfg.noise.interruptRatePerSec = ctx.point.get("irq_per_s");
        IccThreadCovert ch(cfg);
        BitVec bits;
        for (int i = 0; i < 16; ++i)
            bits.push_back(i & 1);
        TransmitResult r = ch.transmit(bits);
        MetricMap m;
        m["ber"] = r.ber;
        m["throughput_bps"] = r.throughputBps;
        return m;
    };

    RunnerOptions serial;
    serial.jobs = 1;
    RunnerOptions parallel;
    parallel.jobs = 4;
    SweepResult a = SweepRunner(serial).run(spec);
    SweepResult b = SweepRunner(parallel).run(spec);
    EXPECT_EQ(jsonReport(a), jsonReport(b));
}

TEST(Runner, TrialsAndSeedOverride)
{
    RunnerOptions opts;
    opts.jobs = 1;
    opts.trials = 1;
    opts.seed = 55;
    SweepResult r = SweepRunner(opts).run(rngSpec());
    EXPECT_EQ(r.trialsPerPoint, 1);
    EXPECT_EQ(r.baseSeed, 55u);
    EXPECT_EQ(r.trials.size(), 6u);
}

TEST(Runner, TrialExceptionPropagates)
{
    ScenarioSpec spec;
    spec.name = "boom";
    spec.axes = {axis("x", {1.0, 2.0, 3.0})};
    spec.run = [](const TrialContext &ctx) -> MetricMap {
        if (ctx.point.get("x") == 2.0)
            throw std::runtime_error("kaboom");
        return {};
    };
    RunnerOptions opts;
    opts.jobs = 2;
    try {
        SweepRunner(opts).run(spec);
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("kaboom"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("x=2"), std::string::npos);
    }
}

TEST(Runner, NonStdExceptionDoesNotTerminate)
{
    ScenarioSpec spec;
    spec.name = "weird-throw";
    spec.run = [](const TrialContext &) -> MetricMap { throw 42; };
    RunnerOptions opts;
    opts.jobs = 2;
    try {
        SweepRunner(opts).run(spec);
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("unknown exception"),
                  std::string::npos);
    }
}

TEST(Runner, RejectsMissingTrialFnAndBadTrials)
{
    ScenarioSpec spec;
    spec.name = "no-fn";
    EXPECT_THROW(SweepRunner().run(spec), std::invalid_argument);

    ScenarioSpec ok = rngSpec();
    RunnerOptions opts;
    opts.trials = 0;
    EXPECT_THROW(SweepRunner(opts).run(ok), std::invalid_argument);
}

} // namespace
} // namespace exp
} // namespace ich
