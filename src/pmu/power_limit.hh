/**
 * @file
 * Running-average power limiter (RAPL PL1-style controller).
 *
 * Evaluates average package power every `evalInterval`; when over budget
 * it lowers the frequency cap one bin, when comfortably under (below 85%
 * of the limit, a constant in power_limit.cc) it raises the cap one bin.
 * Its multi-millisecond reaction time is the mechanism the PowerT
 * baseline channel (Khatamifard et al., HPCA'19) modulates.
 * Disabled by default — IChannels itself does not depend on it.
 *
 * The evaluation window is driven by the shared Ticker (one rate-group
 * event instead of a self-rescheduled event per window), so the RAPL
 * tick coalesces with any other component at the same rate.
 */

#ifndef ICH_PMU_POWER_LIMIT_HH
#define ICH_PMU_POWER_LIMIT_HH

#include <functional>
#include <vector>

#include "common/ticker.hh"
#include "common/types.hh"

namespace ich
{

/** Power-limit controller configuration. */
struct PowerLimitConfig {
    bool enabled = false;
    double limitWatts = 15.0;
    Time evalInterval = fromMilliseconds(4.0);
};

/**
 * Periodic controller. The owner supplies a callback returning average
 * power since the previous evaluation and is notified when the cap moves.
 */
class PowerLimiter : public Clocked
{
  public:
    using PowerProbe = std::function<double()>;
    using CapChanged = std::function<void()>;
    /** Highest frequency whose *projected* power fits the budget. */
    using SetpointProbe = std::function<double()>;

    PowerLimiter(Ticker &ticker, const PowerLimitConfig &cfg,
                 std::vector<double> bins_ghz, PowerProbe probe,
                 CapChanged on_change,
                 SetpointProbe setpoint = nullptr);
    ~PowerLimiter() override;

    /** Current frequency cap, GHz (top bin when unconstrained). */
    double capGhz() const;

    /** Number of completed evaluations (tests). */
    std::uint64_t evaluations() const { return evals_; }

    /** @name Clocked */
    ///@{
    void tick(Time now) override;
    ///@}

  private:
    Ticker &ticker_;
    PowerLimitConfig cfg_;
    std::vector<double> binsGhz_;
    PowerProbe probe_;
    CapChanged onChange_;
    SetpointProbe setpoint_;
    std::size_t capIdx_;
    std::uint64_t evals_ = 0;

    void evaluate();
};

} // namespace ich

#endif // ICH_PMU_POWER_LIMIT_HH
