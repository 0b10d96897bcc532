#include "detect/duty.hh"

#include <algorithm>

#include "chip/chip.hh"

namespace ich
{
namespace detect
{

DutyCycleDetector::DutyCycleDetector(Chip &chip, const DutyParams &p)
    : Detector(chip), params_(p),
      throttledTicks_(chip.coreCount(), 0),
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
    if (++windowFill_ < params_.windowTicks)
        return;
    std::uint32_t worst =
        *std::max_element(throttledTicks_.begin(), throttledTicks_.end());
    lastResidency_ =
        static_cast<double>(worst) / params_.windowTicks;
    std::fill(throttledTicks_.begin(), throttledTicks_.end(), 0);
    windowFill_ = 0;
    notePeak(lastResidency_);
    noteAlarmLevel(lastResidency_ >= params_.threshold, now);
}

} // namespace detect
} // namespace ich
