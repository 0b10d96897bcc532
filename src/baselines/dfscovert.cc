#include "baselines/dfscovert.hh"

#include "baselines/freq_receiver.hh"

namespace ich
{

namespace
{
constexpr Time kBitTime = fromMilliseconds(50.0);
/** Calibration passes over {0, 1}. */
constexpr int kTrainingPairs = 3;
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
    : CovertLink(1, kTrainingPairs, kBitTime), chip_(std::move(chip)),
      seed_(seed)
{
}

std::vector<double>
DfsCovert::measure(const std::vector<int> &bits, bool /*with_noise*/)
{
    ChipConfig chip = chip_;
    chip.pmu.governor.policy = GovernorPolicy::kUserspace;
    chip.pmu.governor.userspaceGhz = kLowGhz;
    chip.pmu.governor.applyLatency = kGovernorApplyLatency;
    Simulation sim(chip, seed_ + (++runCounter_));

    // Sender performs one governor write per bit.
    Chip *chip_ptr = &sim.chip();
    return baselines::runFreqReceiver(
        sim, bits, kBitTime, kHighGhz, kWindowLo, kWindowHi,
        [chip_ptr](Program &tx, int bit) {
            double target = bit ? kHighGhz : kLowGhz;
            tx.call([chip_ptr, target] {
                chip_ptr->pmu().writeGovernor(GovernorPolicy::kUserspace,
                                              target);
            });
        });
}

} // namespace ich
