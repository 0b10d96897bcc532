/**
 * @file
 * Declarative experiment scenarios: parameter axes, sweep expansion, and
 * the scenario registry.
 *
 * A ScenarioSpec describes one experiment grid the way the paper's
 * evaluation sections do: a set of parameter axes (cartesian product),
 * a number of seeded trials per grid point, and a trial function
 * mapping (point, seed) to named metrics. Every trial is independent
 * and reproducible from its derived seed, so the SweepRunner can fan
 * trials out across a worker pool without changing results.
 */

#ifndef ICH_EXP_SCENARIO_HH
#define ICH_EXP_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ich
{
namespace exp
{

/**
 * Intern @p s into the process-wide axis-string pool and return the
 * canonical copy. Pointer-stable for the life of the process;
 * thread-safe (interning is cold: grid expansion, store decode).
 */
const std::string &internString(const std::string &s);

/**
 * Interned axis string: a handle into the intern pool that converts
 * implicitly to `const std::string &`.
 *
 * Axis names and value labels repeat across every point of a grid, yet
 * each ParamPoint used to heap-copy both — the last O(points) memory
 * term (~190 B/point) on every sweep path. An IStr is one pointer;
 * identical strings share one canonical std::string.
 */
class IStr
{
  public:
    IStr() : s_(&internString(std::string())) {}
    IStr(const char *s) : s_(&internString(s)) {}
    IStr(const std::string &s) : s_(&internString(s)) {}

    operator const std::string &() const { return *s_; }
    const std::string &str() const { return *s_; }
    const char *c_str() const { return s_->c_str(); }
    bool empty() const { return s_->empty(); }

    /** Interned-pointer equality == string equality. */
    friend bool operator==(const IStr &a, const IStr &b)
    {
        return a.s_ == b.s_;
    }
    friend bool operator==(const IStr &a, const std::string &b)
    {
        return *a.s_ == b;
    }
    friend bool operator==(const std::string &a, const IStr &b)
    {
        return a == *b.s_;
    }
    friend bool operator==(const IStr &a, const char *b)
    {
        return *a.s_ == b;
    }
    friend bool operator==(const char *a, const IStr &b)
    {
        return *b.s_ == a;
    }
    friend bool operator!=(const IStr &a, const IStr &b)
    {
        return a.s_ != b.s_;
    }

  private:
    const std::string *s_;
};

/** One value on a parameter axis: numeric payload + display label. */
struct ParamValue {
    double value = 0.0;
    IStr label; ///< shown in reports; defaults to the number
};

/** A named parameter axis. */
struct ParamAxis {
    std::string name;
    std::vector<ParamValue> values;
};

/** Numeric axis; labels default to a compact rendering of the value. */
ParamAxis axis(std::string name, const std::vector<double> &values);

/**
 * Labeled axis for categorical parameters (channel kind, FEC scheme…):
 * the value is the category's index unless given explicitly.
 */
ParamAxis axisLabeled(std::string name,
                      const std::vector<std::string> &labels);
ParamAxis axisLabeledValues(
    std::string name,
    const std::vector<std::pair<std::string, double>> &labeled_values);

/**
 * Compact numeric rendering, byte for byte printf's "%g", used for
 * default labels and report cells.
 */
std::string formatValue(double v);

/** One point of the expanded sweep: an ordered set of (axis, value). */
class ParamPoint
{
  public:
    struct Entry {
        IStr name;
        ParamValue value;
    };

    void set(const std::string &name, ParamValue v);

    /** Numeric value of @p name; throws std::out_of_range if missing. */
    double get(const std::string &name) const;
    /** Same, rounded to the nearest integer (categorical indices). */
    int getInt(const std::string &name) const;
    /** Display label of @p name; throws std::out_of_range if missing. */
    const std::string &label(const std::string &name) const;
    bool has(const std::string &name) const;

    const std::vector<Entry> &entries() const { return entries_; }

    /** "axis1=v1 axis2=v2" — for logs and error messages. */
    std::string toString() const;

  private:
    std::vector<Entry> entries_;
};

/** Named metric values produced by one trial (ordered for reporting). */
using MetricMap = std::map<std::string, double>;

/** Everything a trial function gets to see. */
struct TrialContext {
    const ParamPoint &point;
    std::size_t pointIndex = 0; ///< index into the expanded grid
    int trial = 0;              ///< 0..trials-1 within the point
    std::uint64_t seed = 0;     ///< derived from (baseSeed, global index)
};

/** Declarative description of one experiment sweep. */
struct ScenarioSpec {
    std::string name;
    std::string description;
    std::vector<ParamAxis> axes;  ///< cartesian product, first outermost
    int trials = 1;               ///< seeded repetitions per grid point
    std::uint64_t baseSeed = 1;   ///< root of the per-trial seed schedule
    std::function<MetricMap(const TrialContext &)> run;
};

/**
 * Expand the spec's axes into the ordered list of grid points: every
 * combination, nested left-to-right (first axis outermost). A spec
 * with no axes expands to one empty point.
 */
std::vector<ParamPoint> expandPoints(const ScenarioSpec &spec);

/**
 * Deterministic per-trial seed: splitmix64 of the base seed and the
 * global trial index, so any execution order (serial or pooled) sees
 * the same seed for the same trial.
 */
std::uint64_t deriveTrialSeed(std::uint64_t base_seed,
                              std::uint64_t trial_index);

/** Name-keyed scenario collection (insertion-ordered). */
class ScenarioRegistry
{
  public:
    /** Register a scenario; throws std::invalid_argument on duplicates. */
    void add(ScenarioSpec spec);

    /** Look up by name; nullptr when absent. */
    const ScenarioSpec *find(const std::string &name) const;

    std::vector<std::string> names() const;
    const std::vector<ScenarioSpec> &scenarios() const { return specs_; }
    std::size_t size() const { return specs_.size(); }

  private:
    std::vector<ScenarioSpec> specs_;
};

} // namespace exp
} // namespace ich

#endif // ICH_EXP_SCENARIO_HH
