/**
 * @file
 * Simulation: one experiment instance bundling the event queue, RNG, and
 * chip. Each covert-channel run / characterization trial constructs a
 * fresh Simulation so experiments are independent and reproducible from
 * their seed.
 */

#ifndef ICH_CHIP_SIMULATION_HH
#define ICH_CHIP_SIMULATION_HH

#include <memory>

#include "chip/chip.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"

namespace ich
{

/** Self-contained simulation instance. */
class Simulation
{
  public:
    explicit Simulation(const ChipConfig &cfg, std::uint64_t seed = 1);

    EventQueue &eq() { return eq_; }
    const EventQueue &eq() const { return eq_; }
    Rng &rng() { return rng_; }
    Chip &chip() { return *chip_; }
    const Chip &chip() const { return *chip_; }

    /**
     * Run until all installed thread programs complete or @p horizon is
     * reached. @return simulated end time.
     */
    Time run(Time horizon = fromSeconds(10.0));

    /** Run for a fixed additional duration. */
    void runFor(Time duration);

    /**
     * Oracle switch: true restores the fully stepped dispatch path —
     * every Ticker rate-group fire popped through the event queue —
     * instead of the chip's fast-forward pump (the default). The two
     * paths are bit-identical: same member ticks at the same
     * timestamps, same event interleavings, same executedEvents().
     * The stepped path survives as the
     * byte-identity oracle, same discipline as
     * HwThread::setLegacyChunkEvents().
     */
    void setLegacyPdnEvents(bool legacy) { legacyPdnEvents_ = legacy; }

  private:
    EventQueue eq_;
    Rng rng_;
    std::unique_ptr<Chip> chip_;
    bool legacyPdnEvents_ = false;

    bool allProgramsDone() const;
};

} // namespace ich

#endif // ICH_CHIP_SIMULATION_HH
