/**
 * @file
 * OS noise injection (paper §6.3): Poisson-arriving interrupts and
 * context switches stall a hardware thread for a few microseconds /
 * tens of microseconds respectively, inflating the receiver's measured
 * throttling period and causing decode errors (Fig. 14a).
 */

#ifndef ICH_OS_NOISE_HH
#define ICH_OS_NOISE_HH

#include <cstdint>

#include "chip/chip.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace ich
{

/**
 * Noise-source configuration. Interrupts stall for 1–4 µs and context
 * switches for 15–45 µs (§6.3).
 */
struct NoiseConfig {
    /** Interrupt arrivals per second per target thread. */
    double interruptRatePerSec = 0.0;
    /** Context-switch arrivals per second per target thread. */
    double contextSwitchRatePerSec = 0.0;
};

/**
 * Injects stalls into one hardware thread following two independent
 * Poisson processes.
 */
class NoiseInjector
{
  public:
    NoiseInjector(Chip &chip, Rng &rng, const NoiseConfig &cfg,
                  CoreId core, int smt);

    /** Begin injecting until @p until. */
    void start(Time until);

    std::uint64_t interruptsInjected() const { return irqs_; }
    std::uint64_t contextSwitchesInjected() const { return ctxs_; }

  private:
    Chip &chip_;
    Rng &rng_;
    NoiseConfig cfg_;
    CoreId core_;
    int smt_;
    Time until_ = 0;
    std::uint64_t irqs_ = 0;
    std::uint64_t ctxs_ = 0;

    void scheduleInterrupt();
    void scheduleContextSwitch();
};

} // namespace ich

#endif // ICH_OS_NOISE_HH
