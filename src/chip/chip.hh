/**
 * @file
 * Chip: the full SoC model of Figure 1 — CPU cores with SMT threads and
 * throttle units, shared PLL clock domain, central PMU, VR/SVID power
 * delivery, and a thermal node. Implements ChipApi (services for the
 * execution model) and PmuHooks (services for the PMU).
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
#include "cpu/chip_api.hh"
#include "cpu/core.hh"
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
class Chip : public ChipApi, public PmuHooks
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

    /** @name ChipApi */
    ///@{
    EventQueue &eventQueue() override { return eq_; }
    Rng &rng() override { return rng_; }
    double freqGhz() const override { return pmu_->freqGhz(); }
    Cycles tscNow() const override;
    Cycles tscAt(Time t) const override;
    double tscGhz() const override { return cfg_.tscGhz; }
    Time tscToTime(Cycles tsc) const override;
    void phiStarted(CoreId core, int smt, InstClass cls) override;
    void kernelEnded(CoreId core, int smt, InstClass cls) override;
    void activityChanged(CoreId core) override;
    ///@}

    /** @name PmuHooks */
    ///@{
    int numCores() const override { return cfg_.numCores; }
    void assertCoreThrottle(CoreId core, ThrottleReason reason,
                            int initiator) override;
    void deassertCoreThrottle(CoreId core, ThrottleReason reason) override;
    /**
     * The per-core activity summary: entry i equals core(i).activity()
     * at every query. Kept current by activityChanged(core), so a power
     * query reads it without walking any thread.
     */
    const std::vector<CoreActivity> &coreActivity() const override;
    void beforeFreqChange() override;
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
