#include "pdn/power_gate.hh"

namespace ich
{

namespace
{
/** Idle time after which the local PMU re-gates the domain. */
constexpr Time kIdleCloseDelay = fromMicroseconds(30);
} // namespace

PowerGate::PowerGate(EventQueue &eq, Rng &rng, const PowerGateConfig &cfg)
    : eq_(eq), rng_(rng), cfg_(cfg), closed_(cfg.present)
{
}

bool
PowerGate::closed() const
{
    if (!cfg_.present)
        return false;
    if (closed_)
        return true;
    return users_ == 0 && eq_.now() >= lastUse_ + kIdleCloseDelay;
}

void
PowerGate::latchIdleClose()
{
    // Order matters: a lapsed idle window closed the gate *before* the
    // mutation now being applied, exactly when the old timer event
    // would have fired.
    if (cfg_.present && !closed_ && users_ == 0 &&
        eq_.now() >= lastUse_ + kIdleCloseDelay)
        closed_ = true;
}

Time
PowerGate::open()
{
    if (!cfg_.present)
        return 0;
    latchIdleClose();
    lastUse_ = eq_.now();
    if (!closed_)
        return 0;
    closed_ = false;
    ++opens_;
    return rng_.uniformInt(kWakeLatencyMin, kWakeLatencyMax);
}

Time
PowerGate::beginUse()
{
    Time stall = open();
    if (cfg_.present)
        ++users_;
    return stall;
}

void
PowerGate::endUse()
{
    if (!cfg_.present)
        return;
    if (users_ > 0)
        --users_;
    // Idle countdown runs from the end of use, not its beginning.
    lastUse_ = eq_.now();
}

void
PowerGate::touch()
{
    if (!cfg_.present)
        return;
    latchIdleClose();
    if (!closed_)
        lastUse_ = eq_.now();
}

} // namespace ich
