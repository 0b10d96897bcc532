#include "exp/sink.hh"

#include <map>
#include <stdexcept>

#include "exp/resume.hh"

namespace ich
{
namespace exp
{

SweepMeta
sweepMeta(const ScenarioSpec &spec, std::optional<std::uint64_t> seed,
          std::optional<int> trials)
{
    SweepMeta meta;
    meta.scenario = spec.name;
    meta.description = spec.description;
    meta.baseSeed = seed.value_or(spec.baseSeed);
    meta.trialsPerPoint = trials.value_or(spec.trials);
    if (meta.trialsPerPoint < 1)
        throw std::invalid_argument("scenario '" + spec.name +
                                    "': trials must be >= 1");
    meta.points = expandPoints(spec);
    meta.gridFp = gridFingerprint(meta.points);
    return meta;
}

// -------------------------------------------------- MaterializeSink

void
MaterializeSink::beginSweep(const SweepMeta &meta)
{
    result_ = SweepResult();
    result_.scenario = meta.scenario;
    result_.description = meta.description;
    result_.baseSeed = meta.baseSeed;
    result_.trialsPerPoint = meta.trialsPerPoint;
    result_.points = meta.points;
    trialsPerPoint_ = static_cast<std::size_t>(meta.trialsPerPoint);
    result_.trials.resize(result_.points.size() * trialsPerPoint_);
}

void
MaterializeSink::acceptPoint(std::size_t point_idx,
                             const TrialRecord *records, std::size_t count)
{
    if (point_idx >= result_.points.size())
        throw std::out_of_range(
            "MaterializeSink: point beyond the grid");
    if (count != trialsPerPoint_)
        throw std::invalid_argument(
            "MaterializeSink: wrong trial count for point");
    for (std::size_t t = 0; t < count; ++t)
        result_.trials[point_idx * trialsPerPoint_ + t] = records[t];
}

SweepResult
MaterializeSink::take()
{
    return std::move(result_);
}

// ----------------------------------------------- StreamingAggregator

void
StreamingAggregator::beginSweep(const SweepMeta &meta)
{
    aggregates_.clear();
    aggregates_.resize(meta.points.size());
    for (std::size_t i = 0; i < meta.points.size(); ++i)
        aggregates_[i].point = meta.points[i];
    names_.clear();
    completed_ = 0;
}

void
StreamingAggregator::acceptPoint(std::size_t point_idx,
                                 const TrialRecord *records,
                                 std::size_t count)
{
    if (point_idx >= aggregates_.size())
        throw std::out_of_range(
            "StreamingAggregator: point beyond the grid");
    // Per-metric sample lists in trial order: the exact construction
    // serial aggregate() uses, so summaries match it bit-for-bit.
    std::map<std::string, std::vector<double>> samples;
    for (std::size_t t = 0; t < count; ++t)
        for (const auto &kv : records[t].metrics)
            samples[kv.first].push_back(kv.second);
    PointAggregate &pa = aggregates_[point_idx];
    pa.metrics.clear();
    for (const auto &kv : samples) {
        pa.metrics[kv.first] = MetricSummary::fromSamples(kv.second);
        names_.insert(kv.first);
    }
    ++completed_;
}

std::vector<std::string>
StreamingAggregator::metricNames() const
{
    return std::vector<std::string>(names_.begin(), names_.end());
}

} // namespace exp
} // namespace ich
