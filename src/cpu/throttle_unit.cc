#include "cpu/throttle_unit.hh"

#include <cassert>
#include <stdexcept>

namespace ich
{

void
ThrottleUnit::assertThrottle(ThrottleReason reason, int initiator)
{
    int idx = static_cast<int>(reason);
    ++counts_[idx];
    initiators_[idx] = initiator;
    ++asserts_;
}

void
ThrottleUnit::deassertThrottle(ThrottleReason reason)
{
    int idx = static_cast<int>(reason);
    if (counts_[idx] <= 0)
        throw std::logic_error("ThrottleUnit: unbalanced deassert");
    --counts_[idx];
}

bool
ThrottleUnit::throttled() const
{
    for (int c : counts_)
        if (c > 0)
            return true;
    return false;
}

bool
ThrottleUnit::throttledFor(ThrottleReason reason) const
{
    return counts_[static_cast<int>(reason)] > 0;
}

bool
ThrottleUnit::appliesTo(int thread, InstClass cls) const
{
    // P-state transitions always halt the whole core: the PLL is
    // relocking, so there is no per-thread refinement to apply.
    if (counts_[static_cast<int>(ThrottleReason::kPstate)] > 0)
        return true;
    int vr = static_cast<int>(ThrottleReason::kVoltageRamp);
    if (counts_[vr] <= 0)
        return false;
    if (!cfg_.perThread)
        return true; // classic: shared IDQ interface blocks both threads
    // Improved throttling: only the initiating thread's PHI uops.
    return thread == initiators_[vr] && isPhi(cls);
}

double
ThrottleUnit::slowdownFactor(int thread, InstClass cls) const
{
    return appliesTo(thread, cls)
               ? static_cast<double>(cfg_.windowCycles)
               : 1.0;
}

double
ThrottleUnit::notDeliveredFraction(int thread, InstClass cls) const
{
    if (!appliesTo(thread, cls))
        return 0.0;
    return static_cast<double>(cfg_.windowCycles - 1) / cfg_.windowCycles;
}

} // namespace ich
