#include "baselines/turbocc.hh"

#include "baselines/freq_receiver.hh"

namespace ich
{

namespace
{
/** One bit per bit time; must cover license drop + release. */
constexpr Time kBitTime = fromMilliseconds(16.4);
/** Calibration passes over {0, 1}. */
constexpr int kTrainingPairs = 4;
/** Fraction of the bit the sender holds the AVX2 loop. */
constexpr double kHoldFraction = 0.92;
/** Decode window (fraction of the bit time). */
constexpr double kWindowLo = 0.80;
constexpr double kWindowHi = 0.98;
constexpr InstClass kSenderClass = InstClass::k256Heavy;
} // namespace

TurboCC::TurboCC(ChipConfig chip, std::uint64_t seed)
    : CovertLink(1, kTrainingPairs, kBitTime, seed),
      chip_(std::move(chip))
{
}

std::vector<double>
TurboCC::measure(const std::vector<int> &bits, bool /*with_noise*/)
{
    ChipConfig chip = chip_;
    chip.pmu.governor.policy = GovernorPolicy::kPerformance;
    Simulation sim(chip, nextRunSeed());

    // Hold duration in sender-loop iterations at the LVL1 license
    // frequency (the frequency while the loop runs).
    double lic1_ghz = chip.pmu.pstate.licenseMaxGhz[1];
    double hold_us = toMicroseconds(kBitTime) * kHoldFraction;
    double iter_cycles =
        makeKernel(kSenderClass, 1, 100).cyclesPerIteration();
    auto hold_iters = static_cast<std::uint64_t>(
        hold_us * lic1_ghz * 1000.0 / iter_cycles);

    return baselines::runFreqReceiver(
        sim, bits, kBitTime, chip.pmu.pstate.binsGhz.back(), kWindowLo,
        kWindowHi, [hold_iters](Program &tx, int bit) {
            if (bit) // bit 0 idles until the next epoch
                tx.loop(kSenderClass, hold_iters);
        });
}

} // namespace ich
