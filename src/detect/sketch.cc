#include "detect/sketch.hh"

#include <stdexcept>

#include "chip/chip.hh"

namespace ich
{
namespace detect
{

namespace
{

/** splitmix64 — the repo's standard cheap deterministic mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

constexpr int kDepth = 4;   ///< hash rows
constexpr int kWidth = 512; ///< counters per row
/** Row-hash seed (detector-local; never the sim Rng). */
constexpr std::uint64_t kSeed = 0x1CEB00DAULL;
/** Alarm when the heaviest key's share of updates reaches this. */
constexpr double kThreshold = 0.20;
/** Updates required before the dominance score is meaningful. */
constexpr std::uint64_t kMinUpdates = 48;

} // namespace

// ----------------------------------------------------- CountMinSketch

CountMinSketch::CountMinSketch(int depth, int width, std::uint64_t seed)
    : depth_(depth), width_(width), seed_(seed)
{
    if (depth_ <= 0 || width_ <= 0)
        throw std::invalid_argument("CountMinSketch: depth and width "
                                    "must be positive");
    counters_.assign(static_cast<std::size_t>(depth_) * width_, 0.0);
}

std::size_t
CountMinSketch::cell(int row, std::uint64_t key) const
{
    std::uint64_t h = mix64(key ^ mix64(seed_ + 0x9E37ULL * (row + 1)));
    return static_cast<std::size_t>(row) * width_ + h % width_;
}

void
CountMinSketch::update(std::uint64_t key, double w)
{
    ++updates_;
    total_ += w;
    for (int row = 0; row < depth_; ++row)
        counters_[cell(row, key)] += w;
}

double
CountMinSketch::estimate(std::uint64_t key) const
{
    double est = counters_[cell(0, key)];
    for (int row = 1; row < depth_; ++row) {
        double c = counters_[cell(row, key)];
        if (c < est)
            est = c;
    }
    return est;
}

// ------------------------------------------------------ SketchDetector

SketchDetector::SketchDetector(Chip &chip)
    : Detector(chip), sketch_(kDepth, kWidth, kSeed),
      lastAsserts_(chip.coreCount(), 0),
      lastActive_(chip.coreCount(), 0)
{
}

std::uint32_t
SketchDetector::gapBucket(Time now, Time last) const
{
    // log2 of the gap in ticks: periodic traffic lands one bucket,
    // Poisson traffic spreads geometrically.
    std::uint64_t ticks = (now - last) / kTickInterval;
    std::uint32_t b = 0;
    while (ticks > 1) {
        ticks >>= 1;
        ++b;
    }
    return b;
}

void
SketchDetector::fold(std::uint64_t key)
{
    sketch_.update(key);
    double est = sketch_.estimate(key);
    if (est > heavyEstimate_)
        heavyEstimate_ = est;
}

double
SketchDetector::statistic() const
{
    if (sketch_.updates() < kMinUpdates)
        return 0.0;
    return sketch_.totalWeight() > 0.0
               ? heavyEstimate_ / sketch_.totalWeight()
               : 0.0;
}

void
SketchDetector::observe(Time now)
{
    for (int c = 0; c < chip_.coreCount(); ++c) {
        std::uint64_t asserts = chip_.core(c).throttle().assertCount();
        if (asserts != lastAsserts_[c]) {
            if (lastActive_[c] != 0)
                fold((static_cast<std::uint64_t>(c) << 8) |
                     gapBucket(now, lastActive_[c]));
            lastActive_[c] = now;
            lastAsserts_[c] = asserts;
        }
    }
    std::uint64_t pstates = chip_.pmu().pstateTransitions();
    if (pstates != lastPstates_) {
        if (lastPstateActive_ != 0)
            fold((0xF00ULL << 8) | gapBucket(now, lastPstateActive_));
        lastPstateActive_ = now;
        lastPstates_ = pstates;
    }
    double s = statistic();
    notePeak(s);
    noteAlarmLevel(s >= kThreshold, now);
}

} // namespace detect
} // namespace ich
