#include "baselines/powert.hh"

#include "baselines/freq_receiver.hh"

namespace ich
{

namespace
{
constexpr Time kBitTime = fromMilliseconds(8.2);
/** Calibration passes over {0, 1}. */
constexpr int kTrainingPairs = 4;
/** Power-limit controller evaluation interval. */
constexpr Time kEvalInterval = fromMilliseconds(4.0);
// The controller needs at least one evaluation to react in each
// direction; the bit time must cover that cadence.
static_assert(kBitTime >= 2 * kEvalInterval,
              "PowerT bit time must cover two controller evaluations");
/** Fraction of the bit the sender holds its burn loop. */
constexpr double kHoldFraction = 0.90;
/** Decode window (fraction of the bit time). */
constexpr double kWindowLo = 0.55;
constexpr double kWindowHi = 0.95;
/** Sender burn class: license-neutral but power-hungry. */
constexpr InstClass kSenderClass = InstClass::k128Heavy;
} // namespace

PowerT::PowerT(ChipConfig chip, std::uint64_t seed)
    : CovertLink(1, kTrainingPairs, kBitTime), chip_(std::move(chip)),
      seed_(seed)
{
}

void
PowerT::chooseLimit()
{
    // Project power with (a) only the receiver's scalar loop and (b) the
    // sender's burn loop added, at the top frequency bin; place the
    // limit between so only the burn trips the controller.
    const ChipConfig &chip = chip_;
    Simulation sim(chip, seed_);
    const ChipPowerModel &pm = sim.chip().pmu().powerModel();
    double f = chip.pmu.pstate.binsGhz.back();

    std::vector<CoreActivity> idle_act(chip.numCores);
    idle_act[1].active = true; // receiver core
    idle_act[1].cdynNf = chip.core.cdynBaseNf;
    double p_idle = pm.powerWatts(f, idle_act);

    std::vector<CoreActivity> burn_act = idle_act;
    burn_act[0].active = true;
    burn_act[0].cdynNf =
        chip.core.cdynBaseNf + traits(kSenderClass).deltaCdynNf;
    burn_act[0].gbLevel = traits(kSenderClass).guardbandLevel;
    double p_burn = pm.powerWatts(f, burn_act);

    limitWatts_ = 0.5 * (p_idle + p_burn);
}

std::vector<double>
PowerT::measure(const std::vector<int> &bits, bool /*with_noise*/)
{
    if (limitWatts_ <= 0.0)
        chooseLimit();

    ChipConfig chip = chip_;
    chip.pmu.governor.policy = GovernorPolicy::kPerformance;
    chip.pmu.powerLimit.enabled = true;
    chip.pmu.powerLimit.limitWatts = limitWatts_;
    chip.pmu.powerLimit.evalInterval = kEvalInterval;
    Simulation sim(chip, seed_ + (++runCounter_));

    double max_ghz = chip.pmu.pstate.binsGhz.back();
    double hold_us = toMicroseconds(kBitTime) * kHoldFraction;
    double iter_cycles =
        makeKernel(kSenderClass, 1, 100).cyclesPerIteration();
    // Iterations sized at ~90% of max frequency (cap drops are small).
    auto hold_iters = static_cast<std::uint64_t>(
        hold_us * max_ghz * 0.9 * 1000.0 / iter_cycles);

    return baselines::runFreqReceiver(
        sim, bits, kBitTime, max_ghz, kWindowLo, kWindowHi,
        [hold_iters](Program &tx, int bit) {
            if (bit)
                tx.loop(kSenderClass, hold_iters);
        });
}

} // namespace ich
