/**
 * @file
 * Voltage regulator model with finite slew rate and command latency.
 *
 * The three PDN styles the paper discusses are parameterizations of the
 * same model (§2, §5.4, §7):
 *  - MBVR (motherboard VR, Coffee Lake / Cannon Lake): slow ramp, SVID
 *    command overhead — throttling periods of 12–15 µs.
 *  - FIVR/IVR (Haswell): faster ramp — ~9 µs throttling periods.
 *  - LDO (mitigation, recent AMD parts): <0.5 µs transitions.
 *
 * The voltage ramps linearly at `slew` between set points; queries return
 * the instantaneous interpolated value.
 */

#ifndef ICH_PDN_VR_HH
#define ICH_PDN_VR_HH

#include <functional>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/ticker.hh"
#include "common/types.hh"

namespace ich
{

/** Voltage regulator configuration. */
struct VrConfig {
    /** Ramp slew rate in volts per second (e.g. 1 mV/µs = 1000 V/s). */
    double slewVoltsPerSecond = 1000.0;
    /** Latency from command issue to ramp start (SVID decode, DAC). */
    Time commandLatency = fromNanoseconds(500);
    /** Settle time after the ramp reaches the target. */
    Time settleTime = fromNanoseconds(500);
    /**
     * Uniform jitter added to commandLatency per transaction (analog
     * noise, bus arbitration). Zero keeps the model fully deterministic.
     */
    Time commandJitter = 0;

    /** Canonical parameter sets. */
    static VrConfig motherboard();
    static VrConfig integrated();
    static VrConfig lowDropout();
};

/**
 * One voltage rail with linear-slew transitions.
 *
 * setTarget() is a single in-flight transaction: issuing a new target while
 * a transition is active retargets the ramp from the instantaneous voltage
 * (the SVID layer above serializes transactions, so in practice the PMU
 * never does this for up-transitions; tests exercise it directly).
 */
class VoltageRegulator
{
  public:
    using DoneCallback = std::function<void()>;

    /**
     * @param rng Optional jitter source; required when
     *            cfg.commandJitter > 0.
     */
    VoltageRegulator(EventQueue &eq, const VrConfig &cfg,
                     double initial_volts, Rng *rng = nullptr);

    /** Instantaneous output voltage. */
    double volts() const;

    /** True while a transition (command+ramp+settle) is in flight. */
    bool busy() const { return busy_; }

    /**
     * Begin a transition to @p target_volts; @p on_done fires after the
     * ramp completes and the output has settled.
     */
    void setTarget(double target_volts, DoneCallback on_done = nullptr);

    /**
     * Predicted duration of a transition from the current voltage to
     * @p target_volts (command + ramp + settle).
     */
    Time transitionTime(double target_volts) const;

  private:
    EventQueue &eq_;
    VrConfig cfg_;
    Rng *rng_;

    double target_;
    bool busy_ = false;

    // Piecewise-linear state: voltage was `rampFromVolts_` at
    // `rampStartTime_`, ramping toward `target_` (after command latency).
    double rampFromVolts_;
    Time rampStartTime_ = 0;
    Time rampEndTime_ = 0;

    /**
     * Completion deadline. A superseding setTarget() retargets the
     * pending event in place (the callback is the same every time), so
     * a ramp shortened or extended mid-flight costs one in-place sift
     * instead of a deschedule+schedule pair.
     */
    CoalescedTimer done_;
    DoneCallback onDone_;

    void finishTransition();
};

} // namespace ich

#endif // ICH_PDN_VR_HH
