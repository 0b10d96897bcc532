/**
 * @file
 * Aggregation layer for sweep results: per-(point, metric) summaries
 * (mean/stddev/min/max/percentiles, built on common/stats). Whole-sweep
 * rollups live with the harness driver (exp/driver.hh), which can read
 * the trials back on every result path.
 *
 * Aggregates are always computed serially from the trial records in
 * global-trial-index order, so a sweep executed on 1 worker and on N
 * workers produces bit-identical aggregates.
 */

#ifndef ICH_EXP_AGGREGATE_HH
#define ICH_EXP_AGGREGATE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/scenario.hh"

namespace ich
{
namespace exp
{

/** Summary statistics of one metric across the trials of one point. */
struct MetricSummary {
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0; ///< sample stddev (0 when count < 2)
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    static MetricSummary fromSamples(const std::vector<double> &samples);
};

/** One completed trial. */
struct TrialRecord {
    std::size_t pointIndex = 0;
    int trial = 0;
    std::uint64_t seed = 0;
    MetricMap metrics;
};

/** Aggregated view of one grid point. */
struct PointAggregate {
    ParamPoint point;
    std::map<std::string, MetricSummary> metrics;
};

/** Everything a sweep produced. */
struct SweepResult {
    std::string scenario;
    std::string description;
    std::uint64_t baseSeed = 0;
    int trialsPerPoint = 1;
    std::vector<ParamPoint> points;
    std::vector<TrialRecord> trials;        ///< global-trial-index order
    std::vector<PointAggregate> aggregates; ///< one per point, in order

    /** Execution metadata — informational only, never serialized, so
     *  reports stay byte-identical across worker counts / machines. */
    int jobs = 1;
    double wallSeconds = 0.0;
    /** Points prefilled from a resume store instead of re-run. */
    std::size_t resumedPoints = 0;

    /**
     * Aggregate of @p name at grid point @p point. Throws
     * std::out_of_range when the point or the metric does not exist.
     * (Single-point harnesses use pointMetric(0, name) — the point is
     * always spelled out; there is no implicit-first-point accessor.)
     */
    const MetricSummary &pointMetric(std::size_t point,
                                     const std::string &name) const;
};

/**
 * Build the per-point aggregates from @p trials (must be in
 * global-trial-index order; every metric name a point's trials emit is
 * summarized independently).
 */
std::vector<PointAggregate>
aggregate(const std::vector<ParamPoint> &points,
          const std::vector<TrialRecord> &trials);

/** Sorted union of metric names appearing anywhere in the sweep. */
std::vector<std::string> metricNames(const SweepResult &result);

} // namespace exp
} // namespace ich

#endif // ICH_EXP_AGGREGATE_HH
