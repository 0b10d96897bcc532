#include "pmu/central_pmu.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ich
{

namespace
{
constexpr double kGhzEps = 1e-6;
/** Reset-time: the guardband hysteresis after a core's last PHI. */
constexpr Time kResetTime = fromMicroseconds(650);
/** Settling delay before an upclock not caused by a license release. */
constexpr Time kUpclockDelay = fromMicroseconds(200);
/** PLL relock + voltage retarget time; cores throttled meanwhile. */
constexpr Time kPstateTransitionLatency = fromMicroseconds(10);
/** Delay before re-raising frequency after a license relaxes: the
 *  multi-millisecond release that makes TurboCC slow. */
constexpr Time kLicenseReleaseDelay = fromMilliseconds(12);
} // namespace

CentralPmu::CentralPmu(EventQueue &eq, Rng &rng, Ticker &ticker,
                       const PmuConfig &cfg, PmuHooks &hooks)
    : eq_(eq), rng_(rng), ticker_(ticker), cfg_(cfg), hooks_(hooks),
      gbModel_(LoadLine(cfg.rllOhm), cfg.vf),
      powerModel_(gbModel_, cfg.leakagePerCoreAmps, hooks.numCores()),
      governor_(cfg.governor)
{
    coreState_.assign(hooks_.numCores(), CoreState{});
    governorEval_.pmu = this;
    if (cfg_.governor.evalInterval > 0)
        ticker_.add(governorEval_,
                    TickRate{cfg_.governor.evalInterval, 0, 0});

    // Initial frequency: governor request clipped by limits at idle.
    double desired = governor_.requestGhz(cfg_.pstate.binsGhz.front(),
                                          cfg_.pstate.binsGhz.back());
    desired = snapDownToBin(desired, cfg_.pstate.binsGhz);
    std::vector<CoreActivity> idle(hooks_.numCores());
    if (cfg_.secureMode) {
        int top = gbModel_.numLevels() - 1;
        for (auto &a : idle)
            a.gbLevel = top;
        for (auto &cs : coreState_) {
            cs.granted = top;
            cs.pending = top;
        }
    }
    double limit = powerModel_.maxFreqGhz(idle, cfg_.limits,
                                          cfg_.pstate.binsGhz);
    freqGhz_ = std::min(desired, limit);

    // One VR/SVID per domain, initialized at the target for the initial
    // frequency (in secure mode this already includes the worst-case
    // guardband for every core).
    // Rails come up already settled at the initial operating point
    // (computeDomainTarget only needs coreState_ and the models).
    int domains = cfg_.perCoreVr ? hooks_.numCores() : 1;
    for (int d = 0; d < domains; ++d) {
        vrs_.push_back(std::make_unique<VoltageRegulator>(
            eq_, cfg_.vr, computeDomainTarget(d), &rng_));
        svids_.push_back(std::make_unique<Svid>(eq_, *vrs_.back()));
    }

    powerLimiter_ = std::make_unique<PowerLimiter>(
        ticker_, cfg_.powerLimit, cfg_.pstate.binsGhz,
        [this] { return averagePowerSinceProbe(); },
        [this] { reevaluateFreq(); },
        [this] {
            // Highest bin whose projected power at the instantaneous
            // activity fits the budget.
            const auto &act = activityWithLevels();
            const auto &bins = cfg_.pstate.binsGhz;
            for (auto it = bins.rbegin(); it != bins.rend(); ++it)
                if (powerModel_.powerWatts(*it, act) <=
                    cfg_.powerLimit.limitWatts)
                    return *it;
            return bins.front();
        });
}

CentralPmu::~CentralPmu()
{
    if (cfg_.governor.evalInterval > 0)
        ticker_.remove(governorEval_);
}

int
CentralPmu::effectiveLevel(const CoreState &cs) const
{
    return std::max(cs.granted, cs.pending);
}

int
CentralPmu::maxLevelAllCores() const
{
    int lvl = 0;
    for (const auto &cs : coreState_)
        lvl = std::max(lvl, cs.licenseLevel);
    return lvl;
}

double
CentralPmu::computeDomainTarget(int domain) const
{
    double v = gbModel_.baseVolts(freqGhz_);
    for (CoreId c = 0; c < hooks_.numCores(); ++c) {
        if (domainOf(c) != domain)
            continue;
        v += gbModel_.gbVolts(effectiveLevel(coreState_[c]), freqGhz_);
    }
    return v;
}

const std::vector<CoreActivity> &
CentralPmu::activityWithLevels()
{
    activityBuf_ = hooks_.coreActivity();
    std::size_t n = std::min(activityBuf_.size(), coreState_.size());
    for (std::size_t c = 0; c < n; ++c)
        activityBuf_[c].gbLevel = effectiveLevel(coreState_[c]);
    return activityBuf_;
}

double
CentralPmu::voltsDomain(int domain) const
{
    return vrs_.at(domain)->volts();
}

double
CentralPmu::iccAmps() const
{
    return powerModel_.iccAmps(freqGhz_, volts(), hooks_.coreActivity());
}

double
CentralPmu::powerWatts() const
{
    return volts() * iccAmps();
}

int
CentralPmu::grantedLevel(CoreId core) const
{
    return coreState_.at(core).granted;
}

void
CentralPmu::onPhiStart(CoreId core, int smt, InstClass cls)
{
    accrueEnergy();
    auto &cs = coreState_.at(core);
    int lvl = traits(cls).guardbandLevel;
    if (isPhi(cls)) {
        cs.lastPhi = eq_.now();
        cs.licenseLevel = std::max(cs.licenseLevel, lvl);
        scheduleDecay(core);
    }
    // In secure mode the rail is pinned at the worst-case guardband, so
    // no transition / throttle — but the turbo license still reacts.
    if (!cfg_.secureMode && lvl > effectiveLevel(cs)) {
        ++voltageRequests_;
        cs.pending = lvl;
        if (!cs.throttledForV) {
            cs.throttledForV = true;
            hooks_.assertCoreThrottle(core, ThrottleReason::kVoltageRamp,
                                      smt);
        }
        submitUpTransition(core, lvl, domainOf(core));
    }
    reevaluateFreq();
}

void
CentralPmu::submitUpTransition(CoreId core, int lvl, int domain)
{
    double target = computeDomainTarget(domain);
    svids_[domain]->submit(
        target, /*is_increase=*/true, [this, core, lvl, domain] {
            auto &cs = coreState_.at(core);
            cs.granted = std::max(cs.granted, lvl);
            if (cs.pending <= cs.granted)
                cs.pending = cs.granted;
            if (svids_[domain]->upTransitionsInFlight() == 0)
                releaseDomainThrottles(domain);
        });
}

void
CentralPmu::releaseDomainThrottles(int domain)
{
    for (CoreId c = 0; c < hooks_.numCores(); ++c) {
        if (domainOf(c) != domain)
            continue;
        auto &cs = coreState_[c];
        if (cs.throttledForV) {
            cs.throttledForV = false;
            hooks_.deassertCoreThrottle(c, ThrottleReason::kVoltageRamp);
        }
    }
}

void
CentralPmu::onKernelEnd(CoreId core, int smt, InstClass cls)
{
    (void)smt;
    auto &cs = coreState_.at(core);
    if (isPhi(cls)) {
        cs.lastPhi = eq_.now();
        scheduleDecay(core);
    }
}

void
CentralPmu::scheduleDecay(CoreId core)
{
    auto &cs = coreState_.at(core);
    // lastPhi only moves forward, so a pending check always fires no
    // later than the current deadline; decayCheck() re-checks and
    // re-arms. Extending the hysteresis window on every PHI is
    // therefore free — no deschedule/schedule pair per PHI.
    Time when = std::max(eq_.now() + fromMicroseconds(1),
                         cs.lastPhi + kResetTime);
    cs.decay.arm(eq_, when, [this, core] { decayCheck(core); });
}

void
CentralPmu::decayCheck(CoreId core)
{
    auto &cs = coreState_.at(core);
    cs.decay.fired();
    if (eq_.now() < cs.lastPhi + kResetTime) {
        scheduleDecay(core);
        return;
    }
    // A long-running PHI kernel keeps the guardband alive even though its
    // start stamp has aged past the reset-time.
    if (hooks_.coreActivity().at(core).activeGbLevel > 0) {
        cs.lastPhi = eq_.now();
        scheduleDecay(core);
        return;
    }
    if (cs.throttledForV) {
        // An up-transition is still in flight; retry one reset-time later.
        scheduleDecay(core);
        return;
    }
    bool license_held = cs.licenseLevel > 0;
    cs.licenseLevel = 0;
    if (cfg_.secureMode || (cs.granted == 0 && cs.pending == 0)) {
        if (license_held)
            reevaluateFreq(); // license relaxed
        return;
    }
    accrueEnergy();
    cs.granted = 0;
    cs.pending = 0;
    int domain = domainOf(core);
    svids_[domain]->submit(computeDomainTarget(domain),
                           /*is_increase=*/false);
    reevaluateFreq(); // license may have relaxed
}

void
CentralPmu::onActivityChanged()
{
    accrueEnergy();
    reevaluateFreq();
}

void
CentralPmu::writeGovernor(GovernorPolicy policy, double userspace_ghz)
{
    eq_.scheduleIn(governor_.applyLatency(),
                   [this, policy, userspace_ghz] {
                       governor_.setPolicy(policy);
                       governor_.setUserspaceGhz(userspace_ghz);
                       reevaluateFreq();
                   });
}

CentralPmu::FreqTarget
CentralPmu::targetFreq()
{
    const auto &bins = cfg_.pstate.binsGhz;
    double gov = governor_.requestGhz(bins.front(), bins.back());
    double cap = powerLimiter_->capGhz();
    int license = licenseForGbLevel(maxLevelAllCores());
    double limit =
        powerModel_.maxFreqGhz(activityWithLevels(), cfg_.limits, bins);
    // Snapping is monotone: the least of the snapped caps is the
    // snapped least cap.
    double nolicense =
        std::min(snapDownToBin(std::min(gov, cap), bins), limit);
    return {std::min(nolicense,
                     snapDownToBin(cfg_.pstate.licenseMaxGhz[license],
                                   bins)),
            nolicense};
}

void
CentralPmu::reevaluateFreq()
{
    if (pstateInFlight_)
        return;
    FreqTarget target = targetFreq();
    double desired = target.ghz;

    if (desired < freqGhz_ - kGhzEps) {
        if (upclockEvent_ != EventQueue::kInvalidEvent) {
            eq_.deschedule(upclockEvent_);
            upclockEvent_ = EventQueue::kInvalidEvent;
        }
        // Remember whether the license was the (strictly) binding
        // constraint: its relaxation is slow (milliseconds).
        licenseCausedDownclock_ = desired < target.noLicenseGhz - kGhzEps;
        startPstateTransition(desired);
    } else if (desired > freqGhz_ + kGhzEps) {
        scheduleUpclock();
    }
}

void
CentralPmu::startPstateTransition(double target_ghz)
{
    assert(!pstateInFlight_);
    pstateInFlight_ = true;
    ++pstateCount_;
    for (CoreId c = 0; c < hooks_.numCores(); ++c)
        hooks_.assertCoreThrottle(c, ThrottleReason::kPstate, 0);
    auto cb = [this, target_ghz] {
        accrueEnergy();
        hooks_.beforeFreqChange();
        freqGhz_ = target_ghz;
        for (CoreId c = 0; c < hooks_.numCores(); ++c)
            hooks_.deassertCoreThrottle(c, ThrottleReason::kPstate);
        pstateInFlight_ = false;
        for (int d = 0; d < numDomains(); ++d) {
            double target = computeDomainTarget(d);
            svids_[d]->submit(target,
                              target > vrs_[d]->volts() + 1e-9);
        }
        reevaluateFreq();
    };
    // One event per P-state transition; transitions dominate throttled runs.
    eq_.scheduleInChecked(kPstateTransitionLatency, std::move(cb));
}

void
CentralPmu::scheduleUpclock()
{
    if (upclockEvent_ != EventQueue::kInvalidEvent)
        return;
    // A downclock that was license-caused relaxes only after the slow
    // license-release delay (what TurboCC modulates); other upclocks
    // (governor, power-cap) apply after a short settling delay.
    Time delay =
        licenseCausedDownclock_ ? kLicenseReleaseDelay : kUpclockDelay;
    upclockEvent_ = eq_.scheduleIn(delay, [this] { upclockFired(); });
}

void
CentralPmu::upclockFired()
{
    upclockEvent_ = EventQueue::kInvalidEvent;
    if (pstateInFlight_)
        return;
    // Recompute; conditions may have changed while waiting.
    double desired = targetFreq().ghz;
    if (desired > freqGhz_ + kGhzEps) {
        licenseCausedDownclock_ = false;
        startPstateTransition(desired);
    }
}

void
CentralPmu::accrueEnergy()
{
    Time now = eq_.now();
    if (now <= energyMark_) {
        energyMark_ = now;
        return;
    }
    double watts = powerWatts();
    energyJoules_ += watts * toSeconds(now - energyMark_);
    energyMark_ = now;
}

double
CentralPmu::averagePowerSinceProbe()
{
    accrueEnergy();
    Time now = eq_.now();
    double joules = energyJoules_ - probeEnergyJoules_;
    double seconds = toSeconds(now - probeMark_);
    probeMark_ = now;
    probeEnergyJoules_ = energyJoules_;
    return seconds > 0.0 ? joules / seconds : 0.0;
}

} // namespace ich
