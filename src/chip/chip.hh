/**
 * @file
 * Chip: the full SoC model of Figure 1 — CPU cores with SMT threads and
 * throttle units, shared PLL clock domain, central PMU, VR/SVID power
 * delivery, and a thermal node. Threads and the PMU call it directly:
 * threads for the clock, TSC and event queue and to report activity,
 * the PMU to throttle cores and read their activity.
 */

#ifndef ICH_CHIP_CHIP_HH
#define ICH_CHIP_CHIP_HH

#include <memory>
#include <string>
#include <vector>

#include "chip/horizon.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/ticker.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "isa/inst_class.hh"
#include "pmu/central_pmu.hh"
#include "thermal/thermal_model.hh"

namespace ich
{

/** Full chip configuration. */
struct ChipConfig {
    std::string name = "generic";
    int numCores = 2;
    CoreConfig core;
    PmuConfig pmu;
    ThermalConfig thermal;
    /** Invariant TSC rate (base clock), GHz. */
    double tscGhz = 2.2;
};

/** The processor. */
class Chip
{
  public:
    Chip(EventQueue &eq, Rng &rng, const ChipConfig &cfg);
    ~Chip();

    Chip(const Chip &) = delete;
    Chip &operator=(const Chip &) = delete;

    /** @name Structure */
    ///@{
    int coreCount() const { return static_cast<int>(cores_.size()); }
    Core &core(CoreId i) { return *cores_.at(i); }
    const Core &core(CoreId i) const { return *cores_.at(i); }
    CentralPmu &pmu() { return *pmu_; }
    const CentralPmu &pmu() const { return *pmu_; }
    /** Shared tick scheduler for all clocked components. */
    Ticker &ticker() { return ticker_; }
    const Ticker &ticker() const { return ticker_; }
    ThermalModel &thermal() { return thermal_; }
    /** Fast-forward horizon planner (inline tick pump + diagnostics). */
    HorizonPlanner &planner() { return *planner_; }
    const HorizonPlanner &planner() const { return *planner_; }
    const ChipConfig &config() const { return cfg_; }
    ///@}

    /** @name Services for cores and threads */
    ///@{
    EventQueue &eventQueue() { return eq_; }
    Rng &rng() { return rng_; }
    /** Current core clock frequency (all cores share one PLL). */
    double freqGhz() const { return pmu_->freqGhz(); }
    /** Invariant TSC (counts at the base clock regardless of P-state). */
    Cycles tscNow() const;
    /** Invariant TSC value at simulated time @p t (record backdating). */
    Cycles tscAt(Time t) const;
    /** Invariant TSC rate, GHz (hoisted out of record-emission loops;
     *  tscAt(t) == llround(double(t) * tscGhz() / 1000.0)). */
    double tscGhz() const { return cfg_.tscGhz; }
    Time tscToTime(Cycles tsc) const;
    /**
     * A thread began executing a loop of @p cls. The PMU decides whether
     * a guardband increase (and hence throttling) is needed.
     */
    void phiStarted(CoreId core, int smt, InstClass cls);
    /** A loop of @p cls finished (hysteresis bookkeeping). */
    void kernelEnded(CoreId core, int smt, InstClass cls);
    /**
     * What a thread of @p core reports through activeNow() or
     * currentClass() changed (and hence the chip current draw). Must be
     * called right after every such change, before anything can query
     * chip power: coreActivity() is kept current from these calls alone.
     */
    void activityChanged(CoreId core);
    ///@}

    /** @name Services for the PMU */
    ///@{
    /** Accrue + assert + re-rate the given core's threads. */
    void assertCoreThrottle(CoreId core, ThrottleReason reason,
                            int initiator);
    void deassertCoreThrottle(CoreId core, ThrottleReason reason);
    /**
     * The per-core activity summary: entry i equals core(i).activity()
     * (gbLevel left 0 for the PMU to fill) at every query. Kept current
     * by activityChanged(core), so a power query reads it without
     * walking any thread. A view: read it, do not hold it across a
     * thread state change.
     */
    const std::vector<CoreActivity> &coreActivity() const;
    /**
     * The shared PLL is about to change frequency. Threads defer
     * chunk-record materialization analytically, replaying it on demand
     * at the *current* rate, so everything still pending is
     * materialized here at the old frequency. Must be called
     * immediately before every freqGhz() change.
     */
    void beforeFreqChange();
    ///@}

    /** @name Convenience measurement points (the "sense resistors") */
    ///@{
    double vccVolts() const { return pmu_->volts(); }
    double iccAmps() const { return pmu_->iccAmps(); }
    double powerWatts() const { return pmu_->powerWatts(); }
    /** Junction temperature, advancing the thermal state to now. */
    double tjCelsius();
    ///@}

  private:
    /** Periodic Tj integration (thermal.sampleInterval > 0). */
    struct ThermalTick final : Clocked {
        Chip *chip = nullptr;
        void
        tick(Time now) override
        {
            chip->thermal_.update(now, chip->powerWatts());
        }
    };

    EventQueue &eq_;
    Rng &rng_;
    ChipConfig cfg_;
    Ticker ticker_; ///< declared before members that deregister in dtors
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<CentralPmu> pmu_;
    std::unique_ptr<HorizonPlanner> planner_;
    /** Per-core activity summary (see coreActivity()). */
    std::vector<CoreActivity> activity_;
    ThermalModel thermal_;
    ThermalTick thermalTick_;
};

} // namespace ich

#endif // ICH_CHIP_CHIP_HH
