#include "detect/duty.hh"

#include <algorithm>

#include "chip/chip.hh"

namespace ich
{
namespace detect
{

namespace
{
/** Observation ticks per residency window. */
constexpr int kWindowTicks = 64;
/** Alarm when a window's worst per-core residency reaches this. */
constexpr double kThreshold = 0.12;
} // namespace

DutyCycleDetector::DutyCycleDetector(Chip &chip)
    : Detector(chip), throttledTicks_(chip.coreCount(), 0),
      lastAsserts_(chip.coreCount(), 0)
{
}

void
DutyCycleDetector::observe(Time now)
{
    for (int c = 0; c < chip_.coreCount(); ++c) {
        const ThrottleUnit &tu = chip_.core(c).throttle();
        std::uint64_t asserts = tu.assertCount();
        if (tu.throttled() || asserts != lastAsserts_[c])
            ++throttledTicks_[c];
        lastAsserts_[c] = asserts;
    }
    if (++windowFill_ < kWindowTicks)
        return;
    std::uint32_t worst =
        *std::max_element(throttledTicks_.begin(), throttledTicks_.end());
    double residency = static_cast<double>(worst) / kWindowTicks;
    std::fill(throttledTicks_.begin(), throttledTicks_.end(), 0);
    windowFill_ = 0;
    notePeak(residency);
    noteAlarmLevel(residency >= kThreshold, now);
}

} // namespace detect
} // namespace ich
