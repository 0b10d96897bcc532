#include "detect/tenant.hh"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "chip/presets.hh"
#include "os/phi_app.hh"

namespace ich
{
namespace detect
{

TenantConfig::TenantConfig() : chip(presets::skylakeServer()) {}

namespace
{

/** Victim: a steady compute tenant on core 2, PHI bursts per second. */
constexpr double kVictimPhiRatePerSec = 500.0;
/** The adaptive attacker's slowest duty cycle. */
constexpr double kMinDuty = 1.0 / 16.0;

/** Everything attached to one trial's Simulation (detached on reset). */
struct TenantHandles {
    std::unique_ptr<DetectorBank> bank;
    std::vector<std::unique_ptr<Rng>> rngs; ///< one per tenant app
    std::vector<std::unique_ptr<PhiApp>> apps;
};

/** Symbols the attacker's payload packs into (2 bits each). */
std::size_t
payloadSymbols(const TenantConfig &cfg)
{
    return static_cast<std::size_t>((cfg.payloadBits + 1) / 2);
}

/** Attacker transaction period at the configured duty cycle. */
Time
attackerPeriod(const TenantConfig &cfg)
{
    ChannelConfig base;
    return static_cast<Time>(
        std::llround(static_cast<double>(base.period) /
                     cfg.attackerDuty));
}

/** The observation horizon both trial arms share. */
Time
trialHorizon(const TenantConfig &cfg)
{
    return fromMicroseconds(toMicroseconds(attackerPeriod(cfg)) *
                            (payloadSymbols(cfg) + 2));
}

/**
 * Attach the detector bank, the victim, and the honest neighbors.
 * Tenant placement is fixed: the attacker holds cores 0/1, the victim
 * core 2, honest tenant i core 3 + (i mod free) — identical whether or
 * not the attacker is actually present, so present/absent trials
 * differ only in the channel itself.
 */
void
attachTenants(Simulation &sim, const TenantConfig &cfg, Time horizon,
              TenantHandles &h)
{
    h.bank = std::make_unique<DetectorBank>(sim.chip());

    auto addApp = [&](double rate, CoreId core, std::uint64_t salt) {
        if (rate <= 0.0)
            return;
        PhiAppConfig app;
        app.phiRatePerSec = rate;
        h.rngs.push_back(std::make_unique<Rng>(cfg.seed * 2654435761ULL +
                                               salt));
        h.apps.push_back(std::make_unique<PhiApp>(
            sim.chip(), *h.rngs.back(), app, core, 0));
        h.apps.back()->start(horizon);
    };

    int cores = cfg.chip.numCores;
    if (cores < 4)
        throw std::invalid_argument(
            "runTenantTrial: need >= 4 cores (attacker pair + victim + "
            "neighbors)");
    addApp(kVictimPhiRatePerSec, 2, 0xBEEF);
    int free_cores = cores - 3;
    for (int i = 0; i < cfg.honestTenants; ++i)
        addApp(cfg.honestPhiRatePerSec,
               static_cast<CoreId>(3 + i % free_cores),
               0x1000 + static_cast<std::uint64_t>(i));
}

} // namespace

TenantResult
runTenantTrial(const TenantConfig &cfg)
{
    TenantResult res;
    Time horizon = trialHorizon(cfg);
    ChannelConfig ccfg;
    ccfg.chip = cfg.chip;
    ccfg.seed = cfg.seed;
    ccfg.period = attackerPeriod(cfg);

    if (cfg.attackerPresent) {
        std::unique_ptr<CovertChannel> ch =
            makeChannel(ChannelKind::kCores, ccfg);
        // Calibrate unobserved (quiet conditions), then watch the
        // payload run.
        ch->calibration();
        TenantHandles h;
        CovertChannel::SimHooks hooks;
        hooks.onStart = [&](Simulation &sim) {
            attachTenants(sim, cfg, horizon, h);
        };
        hooks.onFinish = [&](Simulation &sim) {
            (void)sim;
            res.metrics = h.bank->metrics();
            h = TenantHandles{}; // detach before the Simulation dies
        };
        ch->setSimHooks(std::move(hooks));

        BitVec payload;
        std::uint64_t lcg = cfg.seed * 6364136223846793005ULL + 1;
        for (int i = 0; i < cfg.payloadBits; ++i) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            payload.push_back(static_cast<std::uint8_t>(lcg >> 62 & 1));
        }
        TransmitResult tx = ch->transmit(payload);
        res.metrics["ber"] = tx.ber;
        res.metrics["throughput_bps"] = tx.throughputBps;
    } else {
        // Same pinned operating point the channel would use, so the
        // honest-only power/throttle baseline is comparable.
        Simulation sim(pinnedChip(ccfg), cfg.seed);
        TenantHandles h;
        attachTenants(sim, cfg, horizon, h);
        // run() would return immediately (no thread programs installed);
        // the honest arm must observe for the full shared horizon.
        sim.runFor(horizon);
        res.metrics = h.bank->metrics();
    }
    res.metrics["duty"] = cfg.attackerDuty;
    return res;
}

FrontierPoint
adaptiveDutySearch(const TenantConfig &base, const std::string &detector,
                   double score_budget, int iters)
{
    std::string key = "det_" + detector + "_score";
    auto eval = [&](double duty) {
        TenantConfig cfg = base;
        cfg.attackerPresent = true;
        cfg.attackerDuty = duty;
        TenantResult r = runTenantTrial(cfg);
        FrontierPoint p;
        p.duty = duty;
        p.score = r.metrics.at(key);
        p.throughputBps = r.metrics.at("throughput_bps");
        p.ber = r.metrics.at("ber");
        p.feasible = p.score <= score_budget;
        return p;
    };

    FrontierPoint full = eval(1.0);
    if (full.feasible)
        return full; // the detector budget doesn't bind at all
    FrontierPoint best = eval(kMinDuty);
    if (!best.feasible)
        return best; // can't hide even at the minimum duty
    double lo = kMinDuty, hi = 1.0;
    for (int i = 0; i < iters; ++i) {
        FrontierPoint mid = eval(0.5 * (lo + hi));
        if (mid.feasible) {
            best = mid;
            lo = mid.duty;
        } else {
            hi = mid.duty;
        }
    }
    return best;
}

} // namespace detect
} // namespace ich
