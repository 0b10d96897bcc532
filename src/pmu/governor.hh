/**
 * @file
 * Software frequency-governor model (paper §5.7 and the DFScovert
 * baseline). Three policies as in Linux cpufreq: performance (max turbo),
 * powersave (min bin), userspace (pinned frequency).
 *
 * Governor writes are software actions: they take effect only after
 * `applyLatency` (sysfs write + kernel worker + PMU mailbox), which is the
 * slowness the DFScovert baseline channel inherits.
 */

#ifndef ICH_PMU_GOVERNOR_HH
#define ICH_PMU_GOVERNOR_HH

#include "common/types.hh"

namespace ich
{

enum class GovernorPolicy { kPerformance, kPowersave, kUserspace };

/** Governor configuration/state. */
struct GovernorConfig {
    GovernorPolicy policy = GovernorPolicy::kUserspace;
    double userspaceGhz = 1.4;
    /** Software path latency for a policy/frequency write. */
    Time applyLatency = fromMicroseconds(50);
    /**
     * Periodic governor/P-state re-evaluation interval (ondemand-style
     * sampling), driven by the chip Ticker. 0 keeps the governor purely
     * event-driven — the default, matching the paper's pinned setups.
     */
    Time evalInterval = 0;
};

/** Resolves the governor's requested frequency. */
class Governor
{
  public:
    explicit Governor(const GovernorConfig &cfg) : cfg_(cfg) {}

    GovernorPolicy policy() const { return cfg_.policy; }
    Time applyLatency() const { return cfg_.applyLatency; }

    /** Frequency the governor asks the PMU for. */
    double
    requestGhz(double min_ghz, double max_turbo_ghz) const
    {
        switch (cfg_.policy) {
          case GovernorPolicy::kPerformance:
            return max_turbo_ghz;
          case GovernorPolicy::kPowersave:
            return min_ghz;
          case GovernorPolicy::kUserspace:
          default:
            return cfg_.userspaceGhz;
        }
    }

    /** Raw state setters (the PMU applies them after applyLatency). */
    void setPolicy(GovernorPolicy p) { cfg_.policy = p; }
    void setUserspaceGhz(double ghz) { cfg_.userspaceGhz = ghz; }

  private:
    GovernorConfig cfg_;
};

} // namespace ich

#endif // ICH_PMU_GOVERNOR_HH
