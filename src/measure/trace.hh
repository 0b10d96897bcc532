/**
 * @file
 * Time-series traces recorded by the DAQ sampler (the software stand-in
 * for the paper's NI-DAQ PCIe-6376 measurement rig, Fig. 5).
 */

#ifndef ICH_MEASURE_TRACE_HH
#define ICH_MEASURE_TRACE_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace ich
{

/** One sampled point. */
struct TracePoint {
    Time time;
    double value;
};

/** Named sample series. */
class Trace
{
  public:
    explicit Trace(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void add(Time t, double v)
    {
        if (!points_.empty() && t < points_.back().time)
            sorted_ = false;
        points_.push_back({t, v});
    }
    const std::vector<TracePoint> &points() const { return points_; }
    std::size_t size() const { return points_.size(); }

    /** Pre-size the sample buffer (DAQ knows the sample count). */
    void reserve(std::size_t n) { points_.reserve(n); }

    /** True while samples have arrived in non-decreasing time order
     *  (always the case for DAQ recordings). */
    bool sorted() const { return sorted_; }

    double minValue() const;
    double maxValue() const;
    double meanValue() const;

    /**
     * Value of the last sample at or before @p t (0 if none).
     * O(log n) binary search while the series is time-sorted; the
     * legacy linear scan only for out-of-order hand-built traces.
     */
    double valueAt(Time t) const;

    /** "time_us value" rows, decimated to at most @p max_rows. */
    std::string toRows(std::size_t max_rows = 200) const;

  private:
    std::string name_;
    std::vector<TracePoint> points_;
    bool sorted_ = true;
};

} // namespace ich

#endif // ICH_MEASURE_TRACE_HH
