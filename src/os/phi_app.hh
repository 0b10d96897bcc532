/**
 * @file
 * Concurrent PHI-executing application (paper §6.3 "Noise from Concurrent
 * Applications", Fig. 14b/c): a synthetic app that injects PHI bursts of
 * random power level at a configurable rate while the covert channel runs.
 * Decode errors occur mainly when the app's PHI level exceeds the level
 * the channel is using, because the rail voltage (and hence TP) then
 * reflects the app's level instead of the sender's.
 */

#ifndef ICH_OS_PHI_APP_HH
#define ICH_OS_PHI_APP_HH

#include <cstdint>

#include "chip/chip.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "isa/inst_class.hh"

namespace ich
{

/**
 * Concurrent-application configuration. Each burst runs one of the
 * 128b_Heavy, 256b_Light, 256b_Heavy and 512b_Heavy classes, drawn
 * uniformly at random, for a few microseconds.
 */
struct PhiAppConfig {
    /** PHI bursts per second (Fig. 14c sweeps 10..10,000). */
    double phiRatePerSec = 0.0;
};

/**
 * Runs PHI bursts on a given hardware thread. Bursts are injected as
 * stand-alone voltage-level events via the PMU notification interface of
 * the target core (the app thread itself need not be program-driven),
 * which matches how a concurrent app perturbs the shared rail.
 */
class PhiApp
{
  public:
    PhiApp(Chip &chip, Rng &rng, const PhiAppConfig &cfg, CoreId core,
           int smt);

    /** Begin injecting until @p until. */
    void start(Time until);

    std::uint64_t burstsInjected() const { return bursts_; }

  private:
    Chip &chip_;
    Rng &rng_;
    PhiAppConfig cfg_;
    CoreId core_;
    int smt_;
    Time until_ = 0;
    std::uint64_t bursts_ = 0;

    void scheduleBurst();
};

} // namespace ich

#endif // ICH_OS_PHI_APP_HH
