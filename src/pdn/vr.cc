#include "pdn/vr.hh"

#include <cmath>
#include <utility>

namespace ich
{

VrConfig
VrConfig::motherboard()
{
    VrConfig cfg;
    cfg.slewVoltsPerSecond = 1000.0;          // 1 mV/us
    cfg.commandLatency = fromMicroseconds(1.0); // SVID serial command
    cfg.settleTime = fromMicroseconds(0.5);
    return cfg;
}

VrConfig
VrConfig::integrated()
{
    VrConfig cfg;
    cfg.slewVoltsPerSecond = 2500.0;          // 2.5 mV/us (FIVR)
    cfg.commandLatency = fromNanoseconds(200);
    cfg.settleTime = fromNanoseconds(300);
    return cfg;
}

VrConfig
VrConfig::lowDropout()
{
    VrConfig cfg;
    // ~200 ns/V controlled transition (paper §7 cites [82]); a 30 mV
    // guardband step completes in well under 0.5 us.
    cfg.slewVoltsPerSecond = 200000.0;
    cfg.commandLatency = fromNanoseconds(50);
    cfg.settleTime = fromNanoseconds(50);
    return cfg;
}

VoltageRegulator::VoltageRegulator(EventQueue &eq, const VrConfig &cfg,
                                   double initial_volts, Rng *rng)
    : eq_(eq), cfg_(cfg), rng_(rng), target_(initial_volts),
      rampFromVolts_(initial_volts)
{
}

double
VoltageRegulator::volts() const
{
    if (!busy_)
        return target_;
    Time now = eq_.now();
    if (now <= rampStartTime_)
        return rampFromVolts_;
    if (now >= rampEndTime_)
        return target_;
    double frac = static_cast<double>(now - rampStartTime_) /
                  static_cast<double>(rampEndTime_ - rampStartTime_);
    return rampFromVolts_ + frac * (target_ - rampFromVolts_);
}

Time
VoltageRegulator::transitionTime(double target_volts) const
{
    double delta = std::fabs(target_volts - volts());
    Time ramp = fromSeconds(delta / cfg_.slewVoltsPerSecond);
    return cfg_.commandLatency + ramp + cfg_.settleTime;
}

void
VoltageRegulator::setTarget(double target_volts, DoneCallback on_done)
{
    // Retarget from the instantaneous voltage.
    double from = volts();
    // A superseded transition's callback is dropped: the SVID layer above
    // owns completion tracking and never overlaps transactions.
    onDone_ = std::move(on_done);
    rampFromVolts_ = from;
    target_ = target_volts;

    double delta = std::fabs(target_volts - from);
    Time ramp = fromSeconds(delta / cfg_.slewVoltsPerSecond);
    Time cmd = cfg_.commandLatency;
    if (cfg_.commandJitter > 0 && rng_ != nullptr)
        cmd += rng_->uniformInt(0, cfg_.commandJitter);
    rampStartTime_ = eq_.now() + cmd;
    rampEndTime_ = rampStartTime_ + ramp;
    busy_ = true;

    // One event per SVID voltage transaction; a superseding transaction
    // moves the pending completion deadline in place.
    done_.retarget(eq_, rampEndTime_ + cfg_.settleTime,
                   [this] { finishTransition(); });
}

void
VoltageRegulator::finishTransition()
{
    done_.fired();
    busy_ = false;
    rampFromVolts_ = target_;
    if (onDone_) {
        // Move out first: the callback may start a new transition.
        DoneCallback cb = std::move(onDone_);
        onDone_ = nullptr;
        cb();
    }
}

} // namespace ich
