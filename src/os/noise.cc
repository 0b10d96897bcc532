#include "os/noise.hh"

namespace ich
{

namespace
{
/** Interrupt service latency bounds (few microseconds, §6.3). */
constexpr Time kInterruptMin = fromMicroseconds(1.0);
constexpr Time kInterruptMax = fromMicroseconds(4.0);
/** Context-switch latency bounds (tens of microseconds, §6.3). */
constexpr Time kContextSwitchMin = fromMicroseconds(15.0);
constexpr Time kContextSwitchMax = fromMicroseconds(45.0);
} // namespace

NoiseInjector::NoiseInjector(Chip &chip, Rng &rng, const NoiseConfig &cfg,
                             CoreId core, int smt)
    : chip_(chip), rng_(rng), cfg_(cfg), core_(core), smt_(smt)
{
}

void
NoiseInjector::start(Time until)
{
    until_ = until;
    if (cfg_.interruptRatePerSec > 0.0)
        scheduleInterrupt();
    if (cfg_.contextSwitchRatePerSec > 0.0)
        scheduleContextSwitch();
}

void
NoiseInjector::scheduleInterrupt()
{
    Time gap = rng_.exponentialInterarrival(cfg_.interruptRatePerSec);
    Time when = chip_.eventQueue().now() + gap;
    if (when > until_)
        return;
    // One event per injected interrupt; rates reach 10k/s in the grids.
    chip_.eventQueue().scheduleChecked(when, [this] {
        ++irqs_;
        Time dur = rng_.uniformInt(kInterruptMin, kInterruptMax);
        chip_.core(core_).thread(smt_).stallFor(dur);
        scheduleInterrupt();
    });
}

void
NoiseInjector::scheduleContextSwitch()
{
    Time gap = rng_.exponentialInterarrival(cfg_.contextSwitchRatePerSec);
    Time when = chip_.eventQueue().now() + gap;
    if (when > until_)
        return;
    chip_.eventQueue().scheduleChecked(when, [this] {
        ++ctxs_;
        Time dur = rng_.uniformInt(kContextSwitchMin, kContextSwitchMax);
        chip_.core(core_).thread(smt_).stallFor(dur);
        scheduleContextSwitch();
    });
}

} // namespace ich
