#include "chip/horizon.hh"

namespace ich
{

std::uint64_t
HorizonPlanner::advance(Time until)
{
    std::uint64_t fired = ticker_.fastForward(until);
    fires_ += fired;
    if (fired > 0)
        ++spans_;
    else
        ++suppressions_;
    return fired;
}

} // namespace ich
