/**
 * @file
 * Interface the CPU core model uses to reach chip-level services (event
 * queue, clocking, TSC, power-management notifications) without depending
 * on the concrete Chip/PMU types. Chip implements this interface.
 */

#ifndef ICH_CPU_CHIP_API_HH
#define ICH_CPU_CHIP_API_HH

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "isa/inst_class.hh"

namespace ich
{

/** Chip services visible to cores and threads. */
class ChipApi
{
  public:
    virtual ~ChipApi() = default;

    virtual EventQueue &eventQueue() = 0;
    virtual Rng &rng() = 0;

    /** Current core clock frequency (all cores share one PLL). */
    virtual double freqGhz() const = 0;

    /** Invariant TSC (counts at the base clock regardless of P-state). */
    virtual Cycles tscNow() const = 0;
    /** Invariant TSC value at simulated time @p t (record backdating). */
    virtual Cycles tscAt(Time t) const = 0;
    /** Invariant TSC rate, GHz (hoisted out of record-emission loops;
     *  tscAt(t) == llround(double(t) * tscGhz() / 1000.0)). */
    virtual double tscGhz() const = 0;
    virtual Time tscToTime(Cycles tsc) const = 0;

    /**
     * A thread began executing a loop of @p cls. The PMU decides whether
     * a guardband increase (and hence throttling) is needed.
     */
    virtual void phiStarted(CoreId core, int smt, InstClass cls) = 0;

    /** A loop of @p cls finished (hysteresis bookkeeping). */
    virtual void kernelEnded(CoreId core, int smt, InstClass cls) = 0;

    /**
     * What a thread of @p core reports through activeNow() or
     * currentClass() changed (and hence the chip current draw). Called
     * right after every such change, before anything can query chip
     * power: the chip keeps a per-core activity summary current from
     * these calls alone.
     */
    virtual void activityChanged(CoreId core) = 0;
};

} // namespace ich

#endif // ICH_CPU_CHIP_API_HH
