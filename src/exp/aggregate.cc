#include "exp/aggregate.hh"

#include <set>
#include <stdexcept>

#include "common/stats.hh"

namespace ich
{
namespace exp
{

MetricSummary
MetricSummary::fromSamples(const std::vector<double> &samples)
{
    MetricSummary m;
    if (samples.empty())
        return m;
    Summary s;
    for (double x : samples)
        s.add(x);
    m.count = s.count();
    m.mean = s.mean();
    m.stddev = s.stddev();
    m.min = s.min();
    m.max = s.max();
    m.p50 = s.quantile(0.50);
    m.p90 = s.quantile(0.90);
    m.p99 = s.quantile(0.99);
    return m;
}

const MetricSummary &
SweepResult::pointMetric(std::size_t point, const std::string &name) const
{
    if (point >= aggregates.size())
        throw std::out_of_range("SweepResult::pointMetric: point " +
                                std::to_string(point) + " of " +
                                std::to_string(aggregates.size()));
    const auto &m = aggregates[point].metrics;
    auto it = m.find(name);
    if (it == m.end())
        throw std::out_of_range("SweepResult::pointMetric: no metric '" +
                                name + "'");
    return it->second;
}

std::vector<PointAggregate>
aggregate(const std::vector<ParamPoint> &points,
          const std::vector<TrialRecord> &trials)
{
    // Per-point, per-metric sample lists, filled in trial-index order so
    // the result is independent of how trials were scheduled.
    std::vector<std::map<std::string, std::vector<double>>> samples(
        points.size());
    for (const auto &t : trials) {
        if (t.pointIndex >= points.size())
            throw std::out_of_range("aggregate: trial point out of range");
        for (const auto &kv : t.metrics)
            samples[t.pointIndex][kv.first].push_back(kv.second);
    }

    std::vector<PointAggregate> out;
    out.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointAggregate pa;
        pa.point = points[i];
        for (const auto &kv : samples[i])
            pa.metrics[kv.first] = MetricSummary::fromSamples(kv.second);
        out.push_back(std::move(pa));
    }
    return out;
}

std::vector<std::string>
metricNames(const SweepResult &result)
{
    std::set<std::string> names;
    for (const auto &pa : result.aggregates)
        for (const auto &kv : pa.metrics)
            names.insert(kv.first);
    return std::vector<std::string>(names.begin(), names.end());
}

} // namespace exp
} // namespace ich
