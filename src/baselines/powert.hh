/**
 * @file
 * POWERT channel baseline (Khatamifard et al., HPCA'19; paper §6.2,
 * Fig. 12b).
 *
 * Covert channel through the package power-limit controller: the sender
 * burning extra power on its core pushes the running-average power over
 * the budget, so the controller lowers the shared frequency cap within
 * one evaluation interval (milliseconds); the receiver senses the
 * frequency. ~122 b/s, bounded by the controller's evaluation cadence.
 */

#ifndef ICH_BASELINES_POWERT_HH
#define ICH_BASELINES_POWERT_HH

#include "channels/channel.hh"

namespace ich
{

/** Power-limit frequency covert channel. */
class PowerT : public CovertLink
{
  public:
    PowerT(ChipConfig chip, std::uint64_t seed);

    /** Power limit chosen between idle and burn power (for tests). */
    double chosenLimitWatts() const { return limitWatts_; }

  private:
    ChipConfig chip_;
    std::uint64_t seed_;
    double limitWatts_ = 0.0;
    std::uint64_t runCounter_ = 0;

    std::vector<double> measure(const std::vector<int> &bits,
                                bool with_noise) override;
    void chooseLimit();
};

} // namespace ich

#endif // ICH_BASELINES_POWERT_HH
