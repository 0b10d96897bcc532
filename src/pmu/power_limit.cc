#include "pmu/power_limit.hh"

#include <stdexcept>
#include <utility>

#include "pmu/pstate.hh"

namespace ich
{

namespace
{
/** Hysteresis: raise the cap only when below this fraction of PL. */
constexpr double kRaiseBelowFraction = 0.85;
} // namespace

PowerLimiter::PowerLimiter(Ticker &ticker, const PowerLimitConfig &cfg,
                           std::vector<double> bins_ghz, PowerProbe probe,
                           CapChanged on_change, SetpointProbe setpoint)
    : ticker_(ticker), cfg_(cfg), binsGhz_(std::move(bins_ghz)),
      probe_(std::move(probe)), onChange_(std::move(on_change)),
      setpoint_(std::move(setpoint))
{
    if (binsGhz_.empty())
        throw std::invalid_argument("PowerLimiter: no frequency bins");
    capIdx_ = binsGhz_.size() - 1;
    if (cfg_.enabled)
        ticker_.add(*this, TickRate{cfg_.evalInterval, 0, 0});
}

PowerLimiter::~PowerLimiter()
{
    if (cfg_.enabled)
        ticker_.remove(*this);
}

void
PowerLimiter::tick(Time)
{
    evaluate();
}

double
PowerLimiter::capGhz() const
{
    return binsGhz_[capIdx_];
}

void
PowerLimiter::evaluate()
{
    ++evals_;
    double avg_watts = probe_ ? probe_() : 0.0;
    std::size_t old_idx = capIdx_;
    if (setpoint_) {
        // Setpoint controller (RAPL-style): jump to the highest bin
        // whose projected power at current activity fits the budget.
        std::size_t target = binIndexAtOrBelow(setpoint_(), binsGhz_);
        if (avg_watts > cfg_.limitWatts && target < capIdx_)
            capIdx_ = target;
        else if (avg_watts < cfg_.limitWatts * kRaiseBelowFraction &&
                 target > capIdx_)
            capIdx_ = target;
    } else if (avg_watts > cfg_.limitWatts && capIdx_ > 0) {
        --capIdx_;
    } else if (avg_watts < cfg_.limitWatts * kRaiseBelowFraction &&
               capIdx_ + 1 < binsGhz_.size()) {
        ++capIdx_;
    }
    if (capIdx_ != old_idx && onChange_)
        onChange_();
}

} // namespace ich
