/**
 * @file
 * N-tenant co-residency trials for detector-vs-attacker campaigns.
 *
 * One trial places, on the server preset, an optional IChannels
 * attacker (sender core 0 / receiver core 1), a victim workload, and a
 * configurable number of honest noisy neighbors (free-running PhiApp
 * tenants) on the remaining cores — then attaches a DetectorBank and
 * reports its alarm metrics alongside the channel's BER/throughput.
 * Attacker-present trials give the ROC its true-positive scores;
 * attacker-absent trials (same tenants, same horizon) give the
 * false-positive scores.
 *
 * The adaptive attacker stretches its transaction period by 1/duty —
 * the paper's pacing contract (TX window + reset-time) still holds, the
 * channel still decodes, but throughput and the detectors' observables
 * both scale down with duty. adaptiveDutySearch() bisects duty against
 * a detector score budget, tracing the capacity-vs-detectability
 * frontier.
 */

#ifndef ICH_DETECT_TENANT_HH
#define ICH_DETECT_TENANT_HH

#include <string>

#include "channels/channel.hh"
#include "detect/detector.hh"

namespace ich
{
namespace detect
{

/** One co-residency trial's population and knobs. */
struct TenantConfig {
    /** Chip preset; defaults to presets::skylakeServer() in the ctor. */
    ChipConfig chip;
    std::uint64_t seed = 1;
    bool attackerPresent = true;
    /**
     * Attacker duty cycle in (0, 1]: the transaction period is
     * basePeriod / duty, so 1.0 is the paper's full-rate channel.
     */
    double attackerDuty = 1.0;
    /** Payload bits the attacker transfers (2 per transaction). */
    int payloadBits = 64;
    /** Honest PhiApp tenants on cores after the victim. */
    int honestTenants = 4;
    /** Poisson PHI burst rate of each honest tenant. */
    double honestPhiRatePerSec = 2000.0;

    TenantConfig();
};

/** Outcome of one co-residency trial. */
struct TenantResult {
    /**
     * Detector metrics (det_*), plus ber / throughput_bps / duty for
     * attacker-present trials. Flows straight into the exp/ pipeline.
     */
    exp::MetricMap metrics;
};

/**
 * Run one co-residency trial. Deterministic in cfg (tenants draw from
 * Rngs forked off cfg.seed, never the simulation's own stream beyond
 * what the attacker's noise config already uses).
 */
TenantResult runTenantTrial(const TenantConfig &cfg);

/** One point on the capacity-vs-detectability frontier. */
struct FrontierPoint {
    double duty = 0.0;
    double score = 0.0; ///< peak score of the budgeted detector
    double throughputBps = 0.0;
    double ber = 0.0;
    bool feasible = false; ///< score <= budget was achievable
};

/**
 * Adaptive attacker: bisect the duty cycle (strongest-attacker model —
 * it can observe the deployed detector's score) between 1/16 and 1 to
 * the largest duty whose @p detector peak score stays within
 * @p score_budget. Runs @p iters bisection probes after the two end
 * points; each probe is one runTenantTrial().
 */
FrontierPoint adaptiveDutySearch(const TenantConfig &base,
                                 const std::string &detector,
                                 double score_budget, int iters);

} // namespace detect
} // namespace ich

#endif // ICH_DETECT_TENANT_HH
