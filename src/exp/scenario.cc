#include "exp/scenario.hh"

#include <charconv>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

namespace ich
{
namespace exp
{

const std::string &
internString(const std::string &s)
{
    // Node-based set: element addresses survive rehash, so the returned
    // reference is stable for the life of the process. Never shrinks —
    // the pool is bounded by the distinct axis names/labels ever seen,
    // not by grid size.
    static std::mutex mu;
    static std::unordered_set<std::string> pool;
    std::lock_guard<std::mutex> lock(mu);
    return *pool.insert(s).first;
}

std::string
formatValue(double v)
{
    // C++17 specifies to_chars(general, 6) as printf's "%g" in the C
    // locale: report cells and default axis labels render as "%g".
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof buf, v,
                           std::chars_format::general, 6);
    if (r.ec != std::errc())
        throw std::logic_error("formatValue: to_chars overflowed");
    return std::string(buf, r.ptr);
}

ParamAxis
axis(std::string name, const std::vector<double> &values)
{
    ParamAxis a;
    a.name = std::move(name);
    for (double v : values)
        a.values.push_back({v, formatValue(v)});
    return a;
}

ParamAxis
axisLabeled(std::string name, const std::vector<std::string> &labels)
{
    ParamAxis a;
    a.name = std::move(name);
    for (std::size_t i = 0; i < labels.size(); ++i)
        a.values.push_back({static_cast<double>(i), labels[i]});
    return a;
}

ParamAxis
axisLabeledValues(
    std::string name,
    const std::vector<std::pair<std::string, double>> &labeled_values)
{
    ParamAxis a;
    a.name = std::move(name);
    for (const auto &lv : labeled_values)
        a.values.push_back({lv.second, lv.first});
    return a;
}

void
ParamPoint::set(const std::string &name, ParamValue v)
{
    for (auto &e : entries_) {
        if (e.name == name) {
            e.value = std::move(v);
            return;
        }
    }
    entries_.push_back({name, std::move(v)});
}

double
ParamPoint::get(const std::string &name) const
{
    for (const auto &e : entries_)
        if (e.name == name)
            return e.value.value;
    throw std::out_of_range("ParamPoint: no axis named '" + name + "'");
}

int
ParamPoint::getInt(const std::string &name) const
{
    double v = get(name);
    return static_cast<int>(v < 0 ? v - 0.5 : v + 0.5);
}

const std::string &
ParamPoint::label(const std::string &name) const
{
    for (const auto &e : entries_)
        if (e.name == name)
            return e.value.label;
    throw std::out_of_range("ParamPoint: no axis named '" + name + "'");
}

bool
ParamPoint::has(const std::string &name) const
{
    for (const auto &e : entries_)
        if (e.name == name)
            return true;
    return false;
}

std::string
ParamPoint::toString() const
{
    std::string s;
    for (const auto &e : entries_) {
        if (!s.empty())
            s += " ";
        s += e.name.str() + "=" + e.value.label.str();
    }
    return s;
}

std::vector<ParamPoint>
expandPoints(const ScenarioSpec &spec)
{
    std::vector<ParamPoint> points;
    if (spec.axes.empty()) {
        points.emplace_back();
        return points;
    }
    for (const auto &a : spec.axes)
        if (a.values.empty())
            throw std::invalid_argument("scenario '" + spec.name +
                                        "': axis '" + a.name + "' is empty");

    if (spec.style == SweepStyle::kZip) {
        std::size_t n = spec.axes.front().values.size();
        for (const auto &a : spec.axes) {
            if (a.values.size() != n)
                throw std::invalid_argument(
                    "scenario '" + spec.name +
                    "': zip axes must have equal lengths");
        }
        for (std::size_t i = 0; i < n; ++i) {
            ParamPoint p;
            for (const auto &a : spec.axes)
                p.set(a.name, a.values[i]);
            points.push_back(std::move(p));
        }
        return points;
    }

    // Cartesian: first axis outermost (varies slowest), like the nested
    // for-loops the serial harnesses used to write by hand.
    std::size_t total = 1;
    for (const auto &a : spec.axes)
        total *= a.values.size();
    points.reserve(total);
    for (std::size_t idx = 0; idx < total; ++idx) {
        ParamPoint p;
        std::size_t rem = idx;
        std::size_t stride = total;
        for (const auto &a : spec.axes) {
            stride /= a.values.size();
            std::size_t vi = rem / stride;
            rem %= stride;
            p.set(a.name, a.values[vi]);
        }
        points.push_back(std::move(p));
    }
    return points;
}

std::uint64_t
deriveTrialSeed(std::uint64_t base_seed, std::uint64_t trial_index)
{
    // splitmix64 over base + (index+1) * golden-gamma: statistically
    // independent streams, and identical for a given (base, index) no
    // matter which worker executes the trial.
    std::uint64_t z = base_seed + (trial_index + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

void
ScenarioRegistry::add(ScenarioSpec spec)
{
    if (spec.name.empty())
        throw std::invalid_argument("ScenarioRegistry: unnamed scenario");
    if (find(spec.name))
        throw std::invalid_argument("ScenarioRegistry: duplicate scenario '" +
                                    spec.name + "'");
    specs_.push_back(std::move(spec));
}

const ScenarioSpec *
ScenarioRegistry::find(const std::string &name) const
{
    for (const auto &s : specs_)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<std::string>
ScenarioRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(specs_.size());
    for (const auto &s : specs_)
        out.push_back(s.name);
    return out;
}

} // namespace exp
} // namespace ich
