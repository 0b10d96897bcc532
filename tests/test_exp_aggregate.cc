/**
 * @file
 * Tests for the aggregation layer: per-point metric summaries,
 * whole-sweep rollups, and metric-name discovery.
 */

#include <gtest/gtest.h>

#include "exp/aggregate.hh"
#include "exp/driver.hh"

namespace ich
{
namespace exp
{
namespace
{

std::vector<ParamPoint>
twoPoints()
{
    ParamPoint a;
    a.set("x", {1.0, "1"});
    ParamPoint b;
    b.set("x", {2.0, "2"});
    return {a, b};
}

TrialRecord
record(std::size_t point, int trial, MetricMap metrics)
{
    TrialRecord r;
    r.pointIndex = point;
    r.trial = trial;
    r.metrics = std::move(metrics);
    return r;
}

TEST(MetricSummaryT, FromSamples)
{
    MetricSummary m = MetricSummary::fromSamples({2, 4, 4, 4, 5, 5, 7, 9});
    EXPECT_EQ(m.count, 8u);
    EXPECT_DOUBLE_EQ(m.mean, 5.0);
    EXPECT_NEAR(m.stddev, 2.138, 0.001);
    EXPECT_DOUBLE_EQ(m.min, 2.0);
    EXPECT_DOUBLE_EQ(m.max, 9.0);
    EXPECT_DOUBLE_EQ(m.p50, 4.5);
    EXPECT_NEAR(m.p90, 7.6, 1e-9);
    EXPECT_NEAR(m.p99, 8.86, 1e-9);
}

TEST(MetricSummaryT, EmptyAndSingle)
{
    MetricSummary empty = MetricSummary::fromSamples({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.mean, 0.0);

    MetricSummary one = MetricSummary::fromSamples({3.5});
    EXPECT_EQ(one.count, 1u);
    EXPECT_DOUBLE_EQ(one.mean, 3.5);
    EXPECT_DOUBLE_EQ(one.stddev, 0.0);
    EXPECT_DOUBLE_EQ(one.p99, 3.5);
}

TEST(Aggregate, GroupsByPointAndMetric)
{
    auto points = twoPoints();
    std::vector<TrialRecord> trials = {
        record(0, 0, {{"ber", 0.1}, {"bps", 100.0}}),
        record(0, 1, {{"ber", 0.3}, {"bps", 200.0}}),
        record(1, 0, {{"ber", 0.0}}),
    };
    auto aggs = aggregate(points, trials);
    ASSERT_EQ(aggs.size(), 2u);
    EXPECT_DOUBLE_EQ(aggs[0].metrics.at("ber").mean, 0.2);
    EXPECT_DOUBLE_EQ(aggs[0].metrics.at("bps").mean, 150.0);
    EXPECT_EQ(aggs[1].metrics.at("ber").count, 1u);
    EXPECT_EQ(aggs[1].metrics.count("bps"), 0u);
}

TEST(Aggregate, RejectsOutOfRangePoint)
{
    auto points = twoPoints();
    std::vector<TrialRecord> trials = {record(7, 0, {{"m", 1.0}})};
    EXPECT_THROW(aggregate(points, trials), std::out_of_range);
}

TEST(Aggregate, RollupAndMetricNames)
{
    SweepResult r;
    r.points = twoPoints();
    r.trials = {
        record(0, 0, {{"ber", 0.1}}),
        record(0, 1, {{"ber", 0.3}, {"extra", 5.0}}),
        record(1, 0, {{"ber", 0.2}}),
    };
    r.aggregates = aggregate(r.points, r.trials);

    MetricSummary all = rollup(r, CliOptions(), "ber");
    EXPECT_EQ(all.count, 3u);
    EXPECT_NEAR(all.mean, 0.2, 1e-12);

    EXPECT_EQ(metricNames(r),
              (std::vector<std::string>{"ber", "extra"}));

    EXPECT_EQ(rollup(r, CliOptions(), "absent").count, 0u);
}

TEST(Aggregate, SweepResultPointMetricAccessor)
{
    SweepResult r;
    r.points = {ParamPoint{}};
    r.trials = {record(0, 0, {{"m", 2.0}})};
    r.aggregates = aggregate(r.points, r.trials);
    EXPECT_DOUBLE_EQ(r.pointMetric(0, "m").mean, 2.0);
    EXPECT_THROW(r.pointMetric(0, "absent"), std::out_of_range);
    EXPECT_THROW(r.pointMetric(1, "m"), std::out_of_range);
    SweepResult empty;
    EXPECT_THROW(empty.pointMetric(0, "m"), std::out_of_range);
}

} // namespace
} // namespace exp
} // namespace ich
