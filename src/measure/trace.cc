#include "measure/trace.hh"

#include <algorithm>
#include <sstream>

namespace ich
{

double
Trace::minValue() const
{
    double m = points_.empty() ? 0.0 : points_.front().value;
    for (const auto &p : points_)
        m = std::min(m, p.value);
    return m;
}

double
Trace::maxValue() const
{
    double m = points_.empty() ? 0.0 : points_.front().value;
    for (const auto &p : points_)
        m = std::max(m, p.value);
    return m;
}

double
Trace::meanValue() const
{
    if (points_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &p : points_)
        sum += p.value;
    return sum / points_.size();
}

double
Trace::valueAt(Time t) const
{
    auto it = std::upper_bound(
        points_.begin(), points_.end(), t,
        [](Time lhs, const TracePoint &p) { return lhs < p.time; });
    if (it == points_.begin())
        return 0.0;
    return std::prev(it)->value;
}

std::string
Trace::toRows(std::size_t max_rows) const
{
    std::ostringstream os;
    // Decimation indexes straight to every strided sample — O(rows),
    // never a scan of the full series.
    std::size_t stride = std::max<std::size_t>(
        1, points_.size() / std::max<std::size_t>(1, max_rows));
    for (std::size_t i = 0; i < points_.size(); i += stride) {
        os << toMicroseconds(points_[i].time) << " " << points_[i].value
           << "\n";
    }
    return os.str();
}

} // namespace ich
