/**
 * @file
 * Probabilistic sketch detector over the throttle-event and
 * frequency-transition streams.
 *
 * The IChannels channels are *periodic*: every transaction asserts
 * core throttling in the same rhythm (TX window + 650 µs reset-time),
 * so the stream of per-core throttle-assert bursts carries a heavy
 * spike at one inter-burst gap. Honest neighbors (Poisson PHI bursts,
 * OS noise) spread their gaps geometrically. The detector folds each
 * observed (core, log2-gap-bucket) — and each frequency-transition gap
 * — into a count-min sketch and scores the *dominance* of the heaviest
 * key: heavyEstimate / totalUpdates. Bounded memory (depth × width
 * counters), line-rate updates, no per-flow state.
 */

#ifndef ICH_DETECT_SKETCH_HH
#define ICH_DETECT_SKETCH_HH

#include <cstdint>
#include <vector>

#include "detect/detector.hh"

namespace ich
{
namespace detect
{

/**
 * Count-min sketch. Deterministic: row hashes derive from the
 * constructor seed alone.
 */
class CountMinSketch
{
  public:
    CountMinSketch(int depth, int width, std::uint64_t seed);

    /** Fold @p key in with weight @p w. */
    void update(std::uint64_t key, double w = 1.0);

    /** Point estimate (min over rows); never below the true count. */
    double estimate(std::uint64_t key) const;

    /** Total weight folded in (sum of update() weights). */
    double totalWeight() const { return total_; }

    std::uint64_t updates() const { return updates_; }

  private:
    int depth_;
    int width_;
    std::uint64_t seed_;
    std::vector<double> counters_; ///< depth_ rows of width_
    double total_ = 0.0;
    std::uint64_t updates_ = 0;

    std::size_t cell(int row, std::uint64_t key) const;
};

/**
 * Sketch-based periodicity detector. Statistic: share of all folded
 * updates attributed (count-min estimate) to the heaviest key seen so
 * far, in [0, 1]; 0 until a minimum number of updates arrived.
 */
class SketchDetector final : public Detector
{
  public:
    explicit SketchDetector(Chip &chip);

    const char *name() const override { return "sketch"; }

  protected:
    void observe(Time now) override;

  private:
    CountMinSketch sketch_;
    /** Per-core throttle-assert counters at the previous tick. */
    std::vector<std::uint64_t> lastAsserts_;
    /** Per-core time of the last tick with assert activity (0: none). */
    std::vector<Time> lastActive_;
    std::uint64_t lastPstates_ = 0;
    Time lastPstateActive_ = 0;
    double heavyEstimate_ = 0.0;

    void fold(std::uint64_t key);
    std::uint32_t gapBucket(Time now, Time last) const;
    double statistic() const;
};

} // namespace detect
} // namespace ich

#endif // ICH_DETECT_SKETCH_HH
