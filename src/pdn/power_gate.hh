/**
 * @file
 * Power-gate model with staggered wake-up (paper §2 "Power Gating", §5.4).
 *
 * Waking a gated domain takes tens of nanoseconds because the controller
 * staggers the sleep-transistor turn-on to bound di/dt noise. The paper's
 * Key Conclusion 3: the AVX power gate accounts for only ~0.1% (8–15 ns)
 * of the multi-microsecond throttling period — modeled here as a one-time
 * stall charged to the first PHI after the gate closed.
 *
 * The idle-close countdown is evaluated lazily (closed-form from the
 * last-use timestamp) instead of via an event-queue timer, so touching
 * the gate on every PHI costs zero heap operations and the gate owns no
 * pending events at all.
 *
 * Long-running kernels pin the gate with beginUse()/endUse(): the idle
 * countdown starts only when the last user releases the unit. The older
 * open()/touch()-only protocol measured idleness from the *start* of a
 * use period, so a kernel outlasting the idle-close delay had its gate
 * closed under it and the next kernel was charged a spurious wake stall.
 *
 * Only the gate's presence varies by part: the wake-up bounds are
 * PowerGate constants and the 30 µs idle-close delay is one in
 * power_gate.cc.
 */

#ifndef ICH_PDN_POWER_GATE_HH
#define ICH_PDN_POWER_GATE_HH

#include <cstdint>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace ich
{

/** Power-gate configuration. */
struct PowerGateConfig {
    /** Present at all? Haswell has no AVX power gate (§5.4). */
    bool present = true;
};

/**
 * One gated power domain (e.g. a core's AVX unit).
 *
 * Usage: a kernel that executes on the domain brackets its execution
 * with beginUse() (absorbing any returned wake-up stall) and endUse().
 * The fire-and-forget protocol — open() for a one-shot use, touch() to
 * bump the idle countdown — remains for short uses and tests.
 */
class PowerGate
{
  public:
    /** Staggered wake-up latency bounds (paper: 8–15 ns for AVX PG). */
    static constexpr Time kWakeLatencyMin = fromNanoseconds(8);
    static constexpr Time kWakeLatencyMax = fromNanoseconds(15);

    PowerGate(EventQueue &eq, Rng &rng, const PowerGateConfig &cfg);

    /** True if the domain is currently gated off (lazily evaluated). */
    bool closed() const;

    /**
     * Open the gate if closed; the idle countdown restarts now.
     * @return the wake-up stall to charge (0 if already open or absent).
     */
    Time open();

    /** open() + pin: the gate cannot idle-close while users remain. */
    Time beginUse();

    /** Release a beginUse() pin; the idle countdown restarts now. */
    void endUse();

    /** Record a momentary use of the domain (defers the idle close). */
    void touch();

    /** Active beginUse() pins (tests). */
    int users() const { return users_; }

    /** Number of open transitions (stats/tests). */
    std::uint64_t openCount() const { return opens_; }

  private:
    EventQueue &eq_;
    Rng &rng_;
    PowerGateConfig cfg_;
    bool closed_; ///< latched as of the last mutation; see closed()
    int users_ = 0;
    Time lastUse_ = 0;
    std::uint64_t opens_ = 0;

    /** Latch a lapsed idle close before mutating lastUse_/users_. */
    void latchIdleClose();
};

} // namespace ich

#endif // ICH_PDN_POWER_GATE_HH
