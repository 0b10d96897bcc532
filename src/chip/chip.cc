#include "chip/chip.hh"

#include <cassert>
#include <cmath>

namespace ich
{

Chip::Chip(EventQueue &eq, Rng &rng, const ChipConfig &cfg)
    : eq_(eq), rng_(rng), cfg_(cfg), ticker_(eq)
{
    for (CoreId i = 0; i < cfg_.numCores; ++i)
        cores_.push_back(std::make_unique<Core>(*this, i, cfg_.core));
    activity_.resize(cores_.size());
    pmu_ = std::make_unique<CentralPmu>(*this, cfg_.pmu);
    planner_ = std::make_unique<HorizonPlanner>(ticker_);
    thermalTick_.chip = this;
    if (cfg_.thermal.sampleInterval > 0)
        ticker_.add(thermalTick_,
                    TickRate{cfg_.thermal.sampleInterval, 0, 0});
}

Chip::~Chip()
{
    if (cfg_.thermal.sampleInterval > 0)
        ticker_.remove(thermalTick_);
}

Cycles
Chip::tscNow() const
{
    return tscAt(eq_.now());
}

Cycles
Chip::tscAt(Time t) const
{
    return static_cast<Cycles>(
        std::llround(static_cast<double>(t) * cfg_.tscGhz / 1000.0));
}

Time
Chip::tscToTime(Cycles tsc) const
{
    return static_cast<Time>(
        std::llround(static_cast<double>(tsc) * 1000.0 / cfg_.tscGhz));
}

void
Chip::phiStarted(CoreId core, int smt, InstClass cls)
{
    pmu_->onPhiStart(core, smt, cls);
}

void
Chip::kernelEnded(CoreId core, int smt, InstClass cls)
{
    pmu_->onKernelEnd(core, smt, cls);
}

void
Chip::activityChanged(CoreId core)
{
    activity_[core] = cores_[core]->activity();
    pmu_->onActivityChanged();
}

void
Chip::assertCoreThrottle(CoreId core, ThrottleReason reason, int initiator)
{
    Core &c = *cores_.at(core);
    c.touch();
    c.throttle().assertThrottle(reason, initiator);
    c.refresh();
}

void
Chip::deassertCoreThrottle(CoreId core, ThrottleReason reason)
{
    Core &c = *cores_.at(core);
    c.touch();
    c.throttle().deassertThrottle(reason);
    c.refresh();
}

void
Chip::beforeFreqChange()
{
    // Deferred chunk records still pending in any thread are priced at
    // the rate that was in force when they were crossed; materialize
    // them before the PLL moves.
    for (auto &core : cores_)
        core->materializePending();
}

const std::vector<CoreActivity> &
Chip::coreActivity() const
{
#ifndef NDEBUG
    // A thread state change that skipped activityChanged(core) would
    // leave a stale entry here and silently skew every power query.
    for (std::size_t i = 0; i < cores_.size(); ++i)
        assert(activity_[i] == cores_[i]->activity());
#endif
    return activity_;
}

double
Chip::tjCelsius()
{
    return thermal_.update(eq_.now(), powerWatts());
}

} // namespace ich
