/**
 * @file
 * Tests of the benchmark's own code: span self-time arithmetic, the
 * per-layer accounting, digest checks and pass isolation.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

Span
span(const char *name, std::int64_t start, std::int64_t end,
     std::int64_t parent, int thread = 0, std::int64_t trial = -1)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.thread = thread;
    s.trial = trial;
    return s;
}

/** A small grid on the given result path, cheap enough for unit tests. */
Workload
tinyWorkload(bool stream)
{
    ich::exp::ScenarioSpec spec;
    spec.name = "tiny";
    spec.description = "unit-test grid";
    spec.axes = {ich::exp::axis("x", {1, 2, 3}),
                 ich::exp::axis("y", {1, 2})};
    spec.trials = 2;
    spec.baseSeed = 7;
    spec.run = [](const ich::exp::TrialContext &ctx) {
        ich::exp::MetricMap m;
        m["a"] = ctx.point.get("x") * ctx.point.get("y");
        m["b"] = static_cast<double>(ctx.seed % 1000);
        return m;
    };
    Workload w;
    w.name = "tiny";
    w.specs = {spec};
    w.tracedSpecs = {spec};
    w.cli.jobs = 2;
    w.cli.json = !stream;
    w.cli.csv = true;
    w.cli.stream = stream;
    w.trialsPerPass = 12;
    return w;
}

/** Runs the test inside a fresh directory below the working directory. */
class InScratchDir : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        home_ = fs::current_path();
        dir_ = home_ / "perfbench_test_tmp" /
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
        resetDir(dir_.string());
        fs::current_path(dir_);
    }
    void TearDown() override
    {
        fs::current_path(home_);
        fs::remove_all(dir_);
        std::error_code ec;
        fs::remove(dir_.parent_path(), ec); // only once empty
    }
    fs::path home_, dir_;
};

} // namespace

TEST(SelfTime, NestedSpansSubtractTheirChildren)
{
    std::vector<Span> s = {span("pass", 0, 100, -1),
                           span("exp.runner", 10, 60, 0),
                           span("exp.sink.aggregate", 20, 30, 1),
                           span("exp.report.text", 70, 90, 0)};
    std::vector<double> self = selfTimesNs(s);
    EXPECT_DOUBLE_EQ(self[0], 100 - 50 - 20);
    EXPECT_DOUBLE_EQ(self[1], 50 - 10);
    EXPECT_DOUBLE_EQ(self[2], 10);
    EXPECT_DOUBLE_EQ(self[3], 20);
}

TEST(SelfTime, OverlappingWorkerSpansShareTheInterval)
{
    // Runner [0,100) with two workers: trial A [10,60) on thread 1,
    // trial B [30,90) on thread 2, and a sink call [60,70) on thread 1.
    std::vector<Span> s = {span("exp.runner", 0, 100, -1),
                           span("pdn.trial", 10, 60, 0, 1, 0),
                           span("pdn.trial", 30, 90, 0, 2, 1),
                           span("exp.sink.aggregate", 60, 70, 0, 1)};
    std::vector<double> self = selfTimesNs(s);
    EXPECT_DOUBLE_EQ(self[0], 10 + 10);         // nothing below it
    EXPECT_DOUBLE_EQ(self[1], 20 + 30 / 2.0);   // alone, then shared
    EXPECT_DOUBLE_EQ(self[2], 30 / 2.0 + 10 / 2.0 + 20);
    EXPECT_DOUBLE_EQ(self[3], 10 / 2.0);
    double sum = 0;
    for (double v : self)
        sum += v;
    EXPECT_DOUBLE_EQ(sum, 100); // wall time is conserved
}

TEST(LayerMetrics, PartsPlusOtherSumToThePass)
{
    std::vector<Span> s = {
        span("pass", 0, 1000, -1),
        span("exp.runner", 50, 700, 0),
        span("exp.scenario.setup", 50, 80, 1),
        span("channels.trial", 100, 600, 1, 1, 0),
        span("channels.calibrate", 110, 300, 3, 1, 0),
        span("chip.sim", 120, 290, 4, 1, 0),
        span("channels.transmit", 300, 590, 3, 1, 0),
        span("chip.sim", 310, 580, 6, 1, 0),
        span("detect.honest_trial", 150, 650, 1, 2, 1),
        span("exp.sink.materialize", 650, 660, 1, 2),
        span("exp.report.text", 720, 800, 0),
        span("exp.report.csv", 800, 950, 0),
    };
    PassCounters c;
    c.workers = 2;
    auto m = layerMetrics(s, c);
    double parts = m["other_ms"];
    for (std::size_t l = 0; l < kNumLayers; ++l)
        parts += m[std::string("layer.") + kLayers[l] + "_ms"];
    EXPECT_NEAR(parts, m["pass_ms"], 1e-12);
    EXPECT_NEAR(m["pass_ms"], 1000e-6, 1e-15);
    EXPECT_NEAR(m["other_ms"], (50 + 20 + 50) * 1e-6, 1e-15);
    EXPECT_NEAR(m["exp.runner.drain_ms"], (650 - 600) * 1e-6, 1e-15);
    EXPECT_NEAR(m["channels.calibrate_ms"], 190e-6, 1e-15);
    EXPECT_NEAR(m["chip.sim_host_ms"], (170 + 270) * 1e-6, 1e-15);
    // Busy: 500 + 500 of trial time over 2 workers x 650 of runner.
    EXPECT_NEAR(m["exp.runner.busy_frac"], 1000.0 / 1300.0, 1e-12);
    // Trial window [100, 650) on 2 workers, minus 1000 of trials and the
    // 50 worker 1 idles in the drain; the sink call after the window does
    // not count. 50 ns over 2 trials.
    EXPECT_NEAR(m["exp.runner.overhead_us_per_trial"], 0.025, 1e-12);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q[0], 2.75);
    EXPECT_DOUBLE_EQ(q[1], 5.5);
    EXPECT_DOUBLE_EQ(q[2], 8.25);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(iqrShare({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0);
}

TEST_F(InScratchDir, ForcedDigestMismatchIsCounted)
{
    Workload w = tinyWorkload(false);
    runPass(w);
    const Digests golden = digestDir(w.cli.outDir);
    ASSERT_EQ(golden.size(), 3u); // tiny.txt, tiny.json, tiny.csv
    EXPECT_EQ(digestMismatches(golden, digestDir(w.cli.outDir)), 0);

    std::ofstream(w.cli.outDir + "/tiny.csv", std::ios::app) << "x";
    std::string detail;
    EXPECT_EQ(digestMismatches(golden, digestDir(w.cli.outDir), &detail), 1);
    EXPECT_NE(detail.find("tiny.csv"), std::string::npos);

    Digests extra = golden;
    extra.erase("tiny.json");
    EXPECT_EQ(digestMismatches(extra, golden), 1);
}

TEST_F(InScratchDir, SecondPassStartsFromAnEmptyResultsDir)
{
    Workload w = tinyWorkload(true);
    const std::string store = w.cli.outDir + "/tiny.colstore";
    runPass(w);
    const auto firstSize = fs::file_size(store);
    const Digests first = digestDir(w.cli.outDir);
    runPass(w);
    EXPECT_EQ(fs::file_size(store), firstSize);
    EXPECT_EQ(digestMismatches(first, digestDir(w.cli.outDir)), 0);

    // Without the reset, the writer adopts the matching store and
    // appends the points again: the store grows, the reports do not.
    std::fflush(stdout);
    ich::exp::runAndReport(w.specs[0], w.cli);
    EXPECT_GT(fs::file_size(store), firstSize);
}

TEST_F(InScratchDir, TracedPassWritesTheSameReports)
{
    for (bool stream : {false, true}) {
        Workload w = tinyWorkload(stream);
        runPass(w);
        const Digests plain = digestDir(w.cli.outDir);
        TracedPass t = runTracedPass(w);
        EXPECT_EQ(digestMismatches(plain, digestDir(w.cli.outDir)), 0)
            << (stream ? "stream" : "materialized");
        auto m = layerMetrics(t.spans, t.counters);
        double parts = m["other_ms"];
        for (std::size_t l = 0; l < kNumLayers; ++l)
            parts += m[std::string("layer.") + kLayers[l] + "_ms"];
        EXPECT_NEAR(parts, m["pass_ms"], 1e-6 * m["pass_ms"]);
        EXPECT_GT(m["exp.report.csv_ms"], 0);
        if (stream) {
            EXPECT_GT(m["exp.colstore.write_mib"], 0);
            EXPECT_GT(m["exp.colstore.read_ms"], 0);
        }
    }
}
