/**
 * @file
 * Streaming result-path API: sweeps push completed grid points into
 * ResultSinks instead of materializing a whole-sweep trial vector.
 *
 * The contract SweepRunner::runStreaming keeps:
 *
 *  - beginSweep(meta) once, before any point.
 *  - acceptPoint(idx, records, n) once per grid point, with the
 *    point's full trial records in trial order (records[t].trial == t).
 *    Points arrive in *completion* order, not index order — sinks that
 *    need index order key off `idx`.
 *  - endSweep() once, only when every point completed. A failed sweep
 *    never calls it, so durable sinks can tell a finished store from
 *    an interrupted one.
 *  - Calls are serialized by the producer; sinks need no locking.
 *
 * Provided sinks:
 *  - MaterializeSink: rebuilds the legacy SweepResult (the
 *    compatibility layer and byte-identity oracle for every streaming
 *    consumer, same discipline as setLegacyChunkEvents()).
 *  - StreamingAggregator: per-point MetricSummary rollups computed the
 *    moment a point completes — O(points × metrics) memory, zero
 *    retained trial records, bit-identical to serial aggregate().
 *  - TeeSink: fan out to several sinks.
 *  - ColumnStoreWriter (exp/colstore.hh): spills records to the
 *    append-only columnar store.
 */

#ifndef ICH_EXP_SINK_HH
#define ICH_EXP_SINK_HH

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exp/aggregate.hh"
#include "exp/scenario.hh"

namespace ich
{
namespace exp
{

/** Identity of one sweep: everything a sink or store header needs. */
struct SweepMeta {
    std::string scenario;
    std::string description;
    std::uint64_t baseSeed = 0;
    int trialsPerPoint = 1;
    /** FNV-1a fingerprint of the expanded grid (exp/resume.hh). */
    std::uint64_t gridFp = 0;
    /** The expanded grid, in index order. */
    std::vector<ParamPoint> points;

    std::size_t numPoints() const { return points.size(); }
};

/**
 * The identity of @p spec's sweep: its expanded grid and fingerprint,
 * with @p seed and @p trials overriding the spec's base seed and
 * trials-per-point when set. Throws std::invalid_argument when the
 * trial count is below 1.
 */
SweepMeta sweepMeta(const ScenarioSpec &spec,
                    std::optional<std::uint64_t> seed = std::nullopt,
                    std::optional<int> trials = std::nullopt);

/** Consumer of completed grid points (see the file comment). */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    virtual void beginSweep(const SweepMeta &meta) = 0;

    /**
     * One completed point: @p records are its @p count trials in trial
     * order. The pointer is only valid for the duration of the call.
     */
    virtual void acceptPoint(std::size_t point_idx,
                             const TrialRecord *records,
                             std::size_t count) = 0;

    virtual void endSweep() = 0;
};

/** Execution metadata of one streaming sweep. */
struct StreamStats {
    std::size_t points = 0;        ///< grid size
    std::size_t resumedPoints = 0; ///< prefilled from a prior store
    int jobs = 1;
    double wallSeconds = 0.0;
};

/**
 * Rebuilds the monolithic SweepResult: O(total trials) memory, by
 * design. Records land in their global-trial-index slot, so the result
 * is independent of point completion order.
 */
class MaterializeSink final : public ResultSink
{
  public:
    void beginSweep(const SweepMeta &meta) override;
    void acceptPoint(std::size_t point_idx, const TrialRecord *records,
                     std::size_t count) override;
    void endSweep() override {}

    /**
     * The materialized result (header fields, points, trials).
     * Aggregates are *not* computed — callers run the serial
     * aggregate() oracle themselves.
     */
    SweepResult take();

  private:
    SweepResult result_;
    std::size_t trialsPerPoint_ = 1;
};

/**
 * Streams per-point aggregation: when a point completes, its
 * MetricSummary set is computed from the records in trial order —
 * exactly the sample order serial aggregate() uses, so the output is
 * bit-identical. Holds the aggregates (the sweep's actual product) and
 * nothing else.
 */
class StreamingAggregator final : public ResultSink
{
  public:
    void beginSweep(const SweepMeta &meta) override;
    void acceptPoint(std::size_t point_idx, const TrialRecord *records,
                     std::size_t count) override;
    void endSweep() override {}

    const std::vector<PointAggregate> &aggregates() const
    {
        return aggregates_;
    }

    /** Sorted union of metric names seen so far. */
    std::vector<std::string> metricNames() const;

    std::size_t completedPoints() const { return completed_; }

  private:
    std::vector<PointAggregate> aggregates_;
    std::set<std::string> names_;
    std::size_t completed_ = 0;
};

/** Forwards every call to each sink, in order. */
class TeeSink final : public ResultSink
{
  public:
    explicit TeeSink(std::vector<ResultSink *> sinks)
        : sinks_(std::move(sinks))
    {
    }

    void beginSweep(const SweepMeta &meta) override
    {
        for (ResultSink *s : sinks_)
            s->beginSweep(meta);
    }
    void acceptPoint(std::size_t point_idx, const TrialRecord *records,
                     std::size_t count) override
    {
        for (ResultSink *s : sinks_)
            s->acceptPoint(point_idx, records, count);
    }
    void endSweep() override
    {
        for (ResultSink *s : sinks_)
            s->endSweep();
    }

  private:
    std::vector<ResultSink *> sinks_;
};

} // namespace exp
} // namespace ich

#endif // ICH_EXP_SINK_HH
