/**
 * @file
 * DFScovert baseline (Alagappan et al., VLSI-SoC'17; paper §6.2,
 * Fig. 12b).
 *
 * A Trojan process modulates the CPU frequency through the software
 * governor interface (userspace frequency writes); a spy process on
 * another core senses the frequency from loop timing. Limited by the
 * multi-millisecond software/kernel governor apply path — the slowest of
 * the compared channels (~20 b/s).
 */

#ifndef ICH_BASELINES_DFSCOVERT_HH
#define ICH_BASELINES_DFSCOVERT_HH

#include "channels/channel.hh"

namespace ich
{

/** Governor-modulation covert channel. */
class DfsCovert : public CovertLink
{
  public:
    DfsCovert(ChipConfig chip, std::uint64_t seed);

  private:
    ChipConfig chip_;

    std::vector<double> measure(const std::vector<int> &bits,
                                bool with_noise) override;
};

} // namespace ich

#endif // ICH_BASELINES_DFSCOVERT_HH
