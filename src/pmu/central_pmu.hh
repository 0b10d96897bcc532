/**
 * @file
 * Central power management unit (paper Figure 1, §2, §4, §5).
 *
 * Responsibilities modeled:
 *  - Adaptive voltage guardbands per core (Equation 1), additive across
 *    cores on a shared rail; requests serialized through the SVID bus so
 *    concurrent cross-core PHIs exacerbate each other's throttling
 *    periods (Multi-Throttling-Cores).
 *  - Core execution throttling while a guardband up-transition is in
 *    flight (Multi-Throttling-Thread / -SMT via the core ThrottleUnit).
 *  - 650 µs hysteresis (reset-time): the granted level decays only after
 *    the core has not executed a PHI for that long.
 *  - Iccmax/Vccmax limit protection and turbo licenses: P-state
 *    transitions with a multi-millisecond license-release delay.
 *  - Software governors and an optional RAPL-style power limiter.
 *  - secure-mode (§7): voltage pinned at the worst-case guardband, so no
 *    PHI ever triggers a transition or throttling.
 *
 * No part varies the hardware timings (reset-time, upclock delay, P-state
 * latency, license-release delay): they are constants in central_pmu.cc.
 */

#ifndef ICH_PMU_CENTRAL_PMU_HH
#define ICH_PMU_CENTRAL_PMU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/ticker.hh"
#include "common/types.hh"
#include "cpu/throttle_unit.hh"
#include "isa/inst_class.hh"
#include "pdn/svid.hh"
#include "pdn/vr.hh"
#include "pmu/governor.hh"
#include "pmu/guardband.hh"
#include "pmu/limits.hh"
#include "pmu/power_limit.hh"
#include "pmu/pstate.hh"

namespace ich
{

/** Chip services the PMU needs (implemented by Chip). */
class PmuHooks
{
  public:
    virtual ~PmuHooks() = default;

    virtual int numCores() const = 0;
    /** Accrue + assert + re-rate the given core's threads. */
    virtual void assertCoreThrottle(CoreId core, ThrottleReason reason,
                                    int initiator) = 0;
    virtual void deassertCoreThrottle(CoreId core,
                                      ThrottleReason reason) = 0;
    /**
     * Per-core instantaneous activity (gbLevel left 0 for the PMU to
     * fill). A view of state the implementer keeps current: read it,
     * do not hold it across a thread state change.
     */
    virtual const std::vector<CoreActivity> &coreActivity() const = 0;
    /**
     * The shared PLL is about to change frequency. Threads defer
     * chunk-record materialization analytically, replaying it on demand
     * at the *current* rate — so everything still pending must be
     * materialized at the old frequency before the new one becomes
     * visible. Called immediately before every freqGhz() change.
     */
    virtual void beforeFreqChange() = 0;
};

/** PMU configuration. */
struct PmuConfig {
    VfCurve vf;
    double rllOhm = 1.9e-3;
    ElectricalLimits limits;
    PstateConfig pstate;
    GovernorConfig governor;
    PowerLimitConfig powerLimit;
    VrConfig vr = VrConfig::motherboard();
    /** Mitigation: one VR domain per core instead of a shared rail. */
    bool perCoreVr = false;
    /** Mitigation: pin the worst-case guardband, never throttle. */
    bool secureMode = false;
    /** Per-core leakage current, amps. */
    double leakagePerCoreAmps = 1.0;
};

/** Central PMU. */
class CentralPmu
{
  public:
    CentralPmu(EventQueue &eq, Rng &rng, Ticker &ticker,
               const PmuConfig &cfg, PmuHooks &hooks);
    ~CentralPmu();

    CentralPmu(const CentralPmu &) = delete;
    CentralPmu &operator=(const CentralPmu &) = delete;

    /** @name Notifications from the execution model */
    ///@{
    void onPhiStart(CoreId core, int smt, InstClass cls);
    void onKernelEnd(CoreId core, int smt, InstClass cls);
    void onActivityChanged();
    ///@}

    /** @name State queries */
    ///@{
    double freqGhz() const { return freqGhz_; }

    /** Rail voltage of @p domain (shared rail: domain 0). */
    double voltsDomain(int domain) const;
    double volts() const { return voltsDomain(0); }

    /** Instantaneous chip current / power at present activity. */
    double iccAmps() const;
    double powerWatts() const;

    int grantedLevel(CoreId core) const;
    int numDomains() const { return static_cast<int>(svids_.size()); }
    Svid &svid(int domain) { return *svids_.at(domain); }
    const Svid &svid(int domain) const { return *svids_.at(domain); }
    ///@}

    /** @name Software interface */
    ///@{
    /** Governor write; takes effect after the governor apply latency. */
    void writeGovernor(GovernorPolicy policy, double userspace_ghz);
    ///@}

    const GuardbandModel &guardbandModel() const { return gbModel_; }
    const ChipPowerModel &powerModel() const { return powerModel_; }

    /** @name Stats (tests/benches) */
    ///@{
    std::uint64_t pstateTransitions() const { return pstateCount_; }
    std::uint64_t voltageRequests() const { return voltageRequests_; }
    ///@}

  private:
    struct CoreState {
        int granted = 0;  ///< guardband level applied on the rail
        int pending = 0;  ///< highest requested level (>= granted)
        /**
         * Recent-PHI level driving the turbo license. Distinct from
         * granted: it tracks instruction activity (with the same
         * reset-time hysteresis) even in secure mode, where the rail
         * level is pinned (§5.3 footnote 11: licenses are separate from
         * the five guardband levels).
         */
        int licenseLevel = 0;
        bool throttledForV = false;
        Time lastPhi = 0;
        /**
         * Deadline-coalesced reset-time check: a PHI extending the
         * hysteresis deadline costs no heap operations while an earlier
         * check is pending — decayCheck() re-checks and re-arms.
         */
        CoalescedTimer decay;
    };

    /** Ondemand-style periodic governor/P-state evaluation (Ticker). */
    struct PeriodicEval final : Clocked {
        CentralPmu *pmu = nullptr;
        void
        tick(Time) override
        {
            pmu->accrueEnergy();
            pmu->reevaluateFreq();
        }
    };

    EventQueue &eq_;
    Rng &rng_;
    Ticker &ticker_;
    PmuConfig cfg_;
    PmuHooks &hooks_;
    PeriodicEval governorEval_;

    GuardbandModel gbModel_;
    ChipPowerModel powerModel_;
    Governor governor_;

    std::vector<std::unique_ptr<VoltageRegulator>> vrs_;
    std::vector<std::unique_ptr<Svid>> svids_;
    std::vector<CoreState> coreState_;
    std::unique_ptr<PowerLimiter> powerLimiter_;

    double freqGhz_;
    bool pstateInFlight_ = false;
    /** Last downclock was license-caused: upclock waits for release. */
    bool licenseCausedDownclock_ = false;
    EventId upclockEvent_ = EventQueue::kInvalidEvent;
    std::uint64_t pstateCount_ = 0;
    std::uint64_t voltageRequests_ = 0;
    std::vector<CoreActivity> activityBuf_; ///< activityWithLevels()

    // Lazy energy integration for the power limiter / overhead benches.
    Time energyMark_ = 0;
    double energyJoules_ = 0.0;
    Time probeMark_ = 0;
    double probeEnergyJoules_ = 0.0;

    int domainOf(CoreId core) const { return cfg_.perCoreVr ? core : 0; }
    int effectiveLevel(const CoreState &cs) const;
    int maxLevelAllCores() const;
    double computeDomainTarget(int domain) const;
    /** coreActivity() with each core's effective guardband level
     *  filled in, in a buffer reused across calls (valid until the
     *  next call). */
    const std::vector<CoreActivity> &activityWithLevels();
    void submitUpTransition(CoreId core, int lvl, int domain);
    void releaseDomainThrottles(int domain);
    void scheduleDecay(CoreId core);
    void decayCheck(CoreId core);
    /** The frequency to run at: governor request and power cap snapped
     *  to a bin, clipped by the electrical limit at the present activity
     *  and by the turbo license; noLicenseGhz omits the license clip. */
    struct FreqTarget {
        double ghz;
        double noLicenseGhz;
    };
    FreqTarget targetFreq();
    void reevaluateFreq();
    void startPstateTransition(double target_ghz);
    void scheduleUpclock();
    void upclockFired();
    void accrueEnergy();
    double averagePowerSinceProbe();
};

} // namespace ich

#endif // ICH_PMU_CENTRAL_PMU_HH
