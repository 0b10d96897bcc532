#include "baselines/turbocc.hh"

#include "baselines/freq_receiver.hh"

namespace ich
{

namespace
{
/** One bit per bit time; must cover license drop + release. */
constexpr Time kBitTime = fromMilliseconds(16.4);
/** Fraction of the bit the sender holds the AVX2 loop. */
constexpr double kHoldFraction = 0.92;
/** Decode window (fraction of the bit time). */
constexpr double kWindowLo = 0.80;
constexpr double kWindowHi = 0.98;
constexpr InstClass kSenderClass = InstClass::k256Heavy;
} // namespace

TurboCC::TurboCC(ChipConfig chip, std::uint64_t seed)
    : chip_(std::move(chip)), seed_(seed)
{
}

double
TurboCC::ratedThroughputBps() const
{
    return 1.0 / toSeconds(kBitTime);
}

std::vector<double>
TurboCC::runBits(const std::vector<int> &bits)
{
    ChipConfig chip = chip_;
    chip.pmu.governor.policy = GovernorPolicy::kPerformance;
    Simulation sim(chip, seed_ + (++runCounter_));

    double max_ghz = chip.pmu.pstate.binsGhz.back();
    double bit_us = toMicroseconds(kBitTime);
    // TSC cycles per microsecond = tscGhz * 1000.
    Cycles first = static_cast<Cycles>(100.0 * chip.tscGhz * 1e3);
    double bit_tsc = bit_us * chip.tscGhz * 1000.0;

    // Hold duration in sender-loop iterations at the LVL1 license
    // frequency (the frequency while the loop runs).
    double lic1_ghz = chip.pmu.pstate.licenseMaxGhz[1];
    double hold_us = bit_us * kHoldFraction;
    double iter_cycles =
        makeKernel(kSenderClass, 1, 100).cyclesPerIteration();
    auto hold_iters = static_cast<std::uint64_t>(
        hold_us * lic1_ghz * 1000.0 / iter_cycles);

    Program tx;
    for (std::size_t k = 0; k < bits.size(); ++k) {
        Cycles epoch = first + static_cast<Cycles>(bit_tsc * k);
        tx.waitUntilTsc(epoch);
        if (bits[k])
            tx.loop(kSenderClass, hold_iters);
        // bit 0: idle until the next epoch's waitUntilTsc
    }
    return baselines::runFreqReceiver(sim, std::move(tx), bits.size(),
                                      bit_us, first, max_ghz, kWindowLo,
                                      kWindowHi);
}

void
TurboCC::calibrate()
{
    std::vector<int> training = {0, 1, 0, 1, 0, 1, 0, 1};
    std::vector<double> ghz = runBits(training);
    double sum0 = 0.0, sum1 = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < training.size(); ++i) {
        if (training[i])
            sum1 += ghz[i];
        else
            sum0 += ghz[i];
        ++n;
    }
    threshold_ = 0.5 * (sum0 + sum1) / (n / 2);
    calibrated_ = true;
}

TransmitResult
TurboCC::transmit(const BitVec &bits)
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
