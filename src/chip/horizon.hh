/**
 * @file
 * Chip-level fast-forward horizon planner.
 *
 * The surviving hot events after the chunk-record and rate-group
 * optimizations are the periodic PMU/PDN housekeeping mix: governor and
 * RAPL evaluations, thermal samples, DAQ/detector probes — all Ticker
 * rate-group fires whose member work is closed-form per tick (the
 * thermal node integrates its RC decay exactly, RAPL energy accrues
 * lazily, governor decisions are pure functions of accrued state). The
 * planner drives Ticker::fastForward(), which fires due groups in place
 * — bit-identically to the popped dispatch: same members, same
 * timestamps, same event interleavings, same executed-event count — at
 * a fraction of the per-event cost (no heap pop/push, no slot recycle,
 * no callback construction, no per-event program-completion scan).
 *
 * The pump stops at the first non-tick event at the queue head: a VR
 * ramp completion, an SVID transaction, a P-state transition, a
 * guardband decay check, a governor-write apply, or a thread chunk
 * boundary. Those run through the normal Simulation dispatch loop, so
 * a skip is *suppressed* exactly when a discrete state change is due —
 * correctness never depends on the planner predicting deadlines.
 */

#ifndef ICH_CHIP_HORIZON_HH
#define ICH_CHIP_HORIZON_HH

#include <cstdint>

#include "common/ticker.hh"
#include "common/types.hh"

namespace ich
{

/** Drives the Ticker's inline fast-forward pump. Owned by Chip. */
class HorizonPlanner
{
  public:
    explicit HorizonPlanner(Ticker &ticker) : ticker_(ticker) {}

    HorizonPlanner(const HorizonPlanner &) = delete;
    HorizonPlanner &operator=(const HorizonPlanner &) = delete;

    /**
     * Fire due tick groups inline up to @p until (see
     * Ticker::fastForward). @return fires performed; 0 means the head
     * event is not a due tick — a suppressed skip.
     */
    std::uint64_t advance(Time until);

    /** @name Diagnostics */
    ///@{
    /** advance() calls that fired at least one group. */
    std::uint64_t spans() const { return spans_; }
    /** Total inline group fires. */
    std::uint64_t fires() const { return fires_; }
    /** advance() calls suppressed by a non-tick head event. */
    std::uint64_t suppressions() const { return suppressions_; }
    ///@}

  private:
    Ticker &ticker_;
    std::uint64_t spans_ = 0;
    std::uint64_t fires_ = 0;
    std::uint64_t suppressions_ = 0;
};

} // namespace ich

#endif // ICH_CHIP_HORIZON_HH
