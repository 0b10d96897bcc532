/**
 * @file
 * Throttle duty-cycle residency detector.
 *
 * The crudest — and cheapest — observable the spy leaves behind: while
 * a guardband up-transition is in flight the core's IDQ is blocked 3
 * of 4 cycles, and a covert channel re-triggers that state every
 * transaction. The detector counts, per core, the fraction of
 * observation ticks with throttle activity — the level asserted at the
 * sample instant *or* an assert edge since the previous sample, so
 * pulses shorter than the sampling period still register — inside
 * fixed-length windows; the statistic is the worst per-core residency
 * of the latest completed window. Honest tenants throttle in isolated
 * bursts (low residency); a channel at usable throughput sustains it
 * on its two cores.
 */

#ifndef ICH_DETECT_DUTY_HH
#define ICH_DETECT_DUTY_HH

#include <vector>

#include "detect/detector.hh"

namespace ich
{
namespace detect
{

class DutyCycleDetector final : public Detector
{
  public:
    explicit DutyCycleDetector(Chip &chip);

    const char *name() const override { return "duty"; }

  protected:
    void observe(Time now) override;

  private:
    std::vector<std::uint32_t> throttledTicks_; ///< per core, this window
    std::vector<std::uint64_t> lastAsserts_;    ///< per core, last sample
    int windowFill_ = 0;
};

} // namespace detect
} // namespace ich

#endif // ICH_DETECT_DUTY_HH
