#include "baselines/dfscovert.hh"

#include "baselines/freq_receiver.hh"

namespace ich
{

namespace
{
constexpr Time kBitTime = fromMilliseconds(50.0);
/** Governor write path latency (sysfs + kernel worker + mailbox). */
constexpr Time kGovernorApplyLatency = fromMilliseconds(20.0);
// A bit cannot be faster than the governor apply path.
static_assert(kBitTime > kGovernorApplyLatency,
              "DFScovert bit time must exceed the governor latency");
/** Governor targets for bit 0 and bit 1. */
constexpr double kLowGhz = 1.6;
constexpr double kHighGhz = 2.8;
/** Decode window (fraction of the bit time). */
constexpr double kWindowLo = 0.70;
constexpr double kWindowHi = 0.98;
} // namespace

DfsCovert::DfsCovert(ChipConfig chip, std::uint64_t seed)
    : chip_(std::move(chip)), seed_(seed)
{
}

double
DfsCovert::ratedThroughputBps() const
{
    return 1.0 / toSeconds(kBitTime);
}

std::vector<double>
DfsCovert::runBits(const std::vector<int> &bits)
{
    ChipConfig chip = chip_;
    chip.pmu.governor.policy = GovernorPolicy::kUserspace;
    chip.pmu.governor.userspaceGhz = kLowGhz;
    chip.pmu.governor.applyLatency = kGovernorApplyLatency;
    Simulation sim(chip, seed_ + (++runCounter_));

    double bit_us = toMicroseconds(kBitTime);
    Cycles first = static_cast<Cycles>(100.0 * chip.tscGhz * 1e3);
    double bit_tsc = bit_us * chip.tscGhz * 1000.0;

    // Sender performs one governor write per bit.
    Program tx;
    Chip *chip_ptr = &sim.chip();
    for (std::size_t k = 0; k < bits.size(); ++k) {
        Cycles epoch = first + static_cast<Cycles>(bit_tsc * k);
        double target = bits[k] ? kHighGhz : kLowGhz;
        tx.waitUntilTsc(epoch);
        tx.call([chip_ptr, target] {
            chip_ptr->pmu().writeGovernor(GovernorPolicy::kUserspace,
                                          target);
        });
    }
    return baselines::runFreqReceiver(sim, std::move(tx), bits.size(),
                                      bit_us, first, kHighGhz, kWindowLo,
                                      kWindowHi);
}

void
DfsCovert::calibrate()
{
    std::vector<int> training = {0, 1, 0, 1, 0, 1};
    std::vector<double> ghz = runBits(training);
    double sum0 = 0.0, sum1 = 0.0;
    int half = static_cast<int>(training.size()) / 2;
    for (std::size_t i = 0; i < training.size(); ++i)
        (training[i] ? sum1 : sum0) += ghz[i];
    threshold_ = 0.5 * (sum0 / half + sum1 / half);
    calibrated_ = true;
}

TransmitResult
DfsCovert::transmit(const BitVec &bits)
{
    if (!calibrated_)
        calibrate();

    std::vector<int> tx(bits.begin(), bits.end());
    std::vector<double> ghz = runBits(tx);

    TransmitResult res;
    res.sentBits = bits;
    for (double g : ghz) {
        res.receivedBits.push_back(g > threshold_ ? 1 : 0);
        res.tpUs.push_back(g);
    }
    res.score(bits.size() * toSeconds(kBitTime));
    return res;
}

} // namespace ich
