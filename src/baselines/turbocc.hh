/**
 * @file
 * TurboCC baseline (Kalmbach et al., arXiv 2020; paper §3, §6.2,
 * Fig. 12b).
 *
 * Cross-core covert channel that modulates the *turbo license*: the
 * sender holding an AVX2 loop forces the shared clock domain down to the
 * LVL1 turbo frequency; the receiver senses the frequency from loop
 * timing. Slow because the license releases only milliseconds after the
 * AVX2 activity stops (and the paper's Key Conclusion 2: the cap is a
 * current-limit mechanism, not thermal). ~61 b/s.
 */

#ifndef ICH_BASELINES_TURBOCC_HH
#define ICH_BASELINES_TURBOCC_HH

#include "channels/channel.hh"

namespace ich
{

/** Turbo-license frequency covert channel. */
class TurboCC : public CovertLink
{
  public:
    TurboCC(ChipConfig chip, std::uint64_t seed);

  private:
    ChipConfig chip_;

    std::vector<double> measure(const std::vector<int> &bits,
                                bool with_noise) override;
};

} // namespace ich

#endif // ICH_BASELINES_TURBOCC_HH
