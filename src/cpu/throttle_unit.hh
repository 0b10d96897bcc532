/**
 * @file
 * Core execution-throttling mechanism (paper §5.6, Figure 11).
 *
 * While a voltage transition (or P-state transition) is pending, the core
 * blocks the IDQ→back-end interface during 3 of every 4 clock cycles, so
 * effective IPC drops to 1/4 — for *both* SMT threads, because the
 * interface is shared (Key Conclusion 5).
 *
 * The "Improved Core Throttling" mitigation (§7) changes this to block
 * only uops of the PHI-issuing thread, and only PHI uops — implemented by
 * the perThread flag consulted in slowdownFactor().
 */

#ifndef ICH_CPU_THROTTLE_UNIT_HH
#define ICH_CPU_THROTTLE_UNIT_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "isa/inst_class.hh"

namespace ich
{

/** Why the core is being throttled. */
enum class ThrottleReason {
    kVoltageRamp = 0, ///< waiting for a guardband up-transition
    kPstate = 1,      ///< frequency/voltage P-state transition in flight
};

constexpr int kNumThrottleReasons = 2;

/** Throttle-unit configuration. */
struct ThrottleConfig {
    /** IDQ delivery duty cycle: deliver 1 cycle out of every... */
    int windowCycles = 4;
    /**
     * Mitigation (§7 "Improved Core Throttling"): throttle only the
     * initiating SMT thread, and only its PHI uops.
     */
    bool perThread = false;
};

/**
 * Tracks throttle assertions per reason and computes the execution
 * slowdown each thread currently experiences.
 */
class ThrottleUnit
{
  public:
    static constexpr int kMaxSmt = 2;

    explicit ThrottleUnit(const ThrottleConfig &cfg) : cfg_(cfg) {}

    /**
     * Assert throttling for @p reason, initiated by core-local thread
     * @p initiator (the thread whose PHI triggered the transition).
     * Assertions nest per reason (counted).
     */
    void assertThrottle(ThrottleReason reason, int initiator);

    /** Release one assertion of @p reason. */
    void deassertThrottle(ThrottleReason reason);

    /** True if any reason is asserted. */
    bool throttled() const;

    /** True if @p reason is asserted. */
    bool throttledFor(ThrottleReason reason) const;

    /**
     * Execution-time multiplier for @p thread executing instructions of
     * class @p cls (>= 1.0; windowCycles when throttle applies).
     */
    double slowdownFactor(int thread, InstClass cls) const;

    /**
     * Fraction of IDQ slots not delivered for @p thread at this instant
     * (0.75 during classic throttling; used for counter accrual).
     */
    double notDeliveredFraction(int thread, InstClass cls) const;

    /** Total assert events (stats/tests). */
    std::uint64_t assertCount() const { return asserts_; }

  private:
    ThrottleConfig cfg_;
    std::array<int, kNumThrottleReasons> counts_{};
    std::array<int, kNumThrottleReasons> initiators_{};
    std::uint64_t asserts_ = 0;

    bool appliesTo(int thread, InstClass cls) const;
};

} // namespace ich

#endif // ICH_CPU_THROTTLE_UNIT_HH
