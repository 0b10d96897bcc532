/**
 * @file
 * Time-series traces recorded by the DAQ sampler (the software stand-in
 * for the paper's NI-DAQ PCIe-6376 measurement rig, Fig. 5).
 */

#ifndef ICH_MEASURE_TRACE_HH
#define ICH_MEASURE_TRACE_HH

#include <stdexcept>
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

    /**
     * Append a sample. Samples arrive in non-decreasing time order (the
     * DAQ samples at each tick's `now`); an earlier one is rejected.
     */
    void add(Time t, double v)
    {
        if (!points_.empty() && t < points_.back().time)
            throw std::invalid_argument("Trace::add: sample out of order");
        points_.push_back({t, v});
    }
    const std::vector<TracePoint> &points() const { return points_; }
    std::size_t size() const { return points_.size(); }

    /** Pre-size the sample buffer (DAQ knows the sample count). */
    void reserve(std::size_t n) { points_.reserve(n); }

    double minValue() const;
    double maxValue() const;
    double meanValue() const;

    /** Value of the last sample at or before @p t (0 if none), by
     *  O(log n) binary search. */
    double valueAt(Time t) const;

    /** "time_us value" rows, decimated to at most @p max_rows. */
    std::string toRows(std::size_t max_rows = 200) const;

  private:
    std::string name_;
    std::vector<TracePoint> points_;
};

} // namespace ich

#endif // ICH_MEASURE_TRACE_HH
