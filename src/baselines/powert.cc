#include "baselines/powert.hh"

#include "baselines/freq_receiver.hh"

namespace ich
{

namespace
{
constexpr Time kBitTime = fromMilliseconds(8.2);
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
    : chip_(std::move(chip)), seed_(seed)
{
}

double
PowerT::ratedThroughputBps() const
{
    return 1.0 / toSeconds(kBitTime);
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
PowerT::runBits(const std::vector<int> &bits)
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
    double bit_us = toMicroseconds(kBitTime);
    Cycles first = static_cast<Cycles>(100.0 * chip.tscGhz * 1e3);
    double bit_tsc = bit_us * chip.tscGhz * 1000.0;

    double hold_us = bit_us * kHoldFraction;
    double iter_cycles =
        makeKernel(kSenderClass, 1, 100).cyclesPerIteration();
    // Iterations sized at ~90% of max frequency (cap drops are small).
    auto hold_iters = static_cast<std::uint64_t>(
        hold_us * max_ghz * 0.9 * 1000.0 / iter_cycles);

    Program tx;
    for (std::size_t k = 0; k < bits.size(); ++k) {
        Cycles epoch = first + static_cast<Cycles>(bit_tsc * k);
        tx.waitUntilTsc(epoch);
        if (bits[k])
            tx.loop(kSenderClass, hold_iters);
    }
    return baselines::runFreqReceiver(sim, std::move(tx), bits.size(),
                                      bit_us, first, max_ghz, kWindowLo,
                                      kWindowHi);
}

void
PowerT::calibrate()
{
    std::vector<int> training = {0, 1, 0, 1, 0, 1, 0, 1};
    std::vector<double> ghz = runBits(training);
    double sum0 = 0.0, sum1 = 0.0;
    int half = static_cast<int>(training.size()) / 2;
    for (std::size_t i = 0; i < training.size(); ++i)
        (training[i] ? sum1 : sum0) += ghz[i];
    threshold_ = 0.5 * (sum0 / half + sum1 / half);
    calibrated_ = true;
}

TransmitResult
PowerT::transmit(const BitVec &bits)
{
    if (!calibrated_)
        calibrate();

    std::vector<int> tx(bits.begin(), bits.end());
    std::vector<double> ghz = runBits(tx);

    TransmitResult res;
    res.sentBits = bits;
    for (double g : ghz) {
        res.receivedBits.push_back(g < threshold_ ? 1 : 0);
        res.tpUs.push_back(g);
    }
    res.score(bits.size() * toSeconds(kBitTime));
    return res;
}

} // namespace ich
