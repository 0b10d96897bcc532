/**
 * @file
 * NetSpectre AVX gadget baseline (Schwarz et al., ESORICS'19; paper §3,
 * §6.2 and Fig. 12a).
 *
 * Same-hardware-thread covert channel using a *single-level* throttling
 * side-effect: the sender either executes an AVX2 loop (bit 1) or stays
 * idle (bit 0); the receiver times one AVX2 probe loop — fast means the
 * rail was already ramped (bit 1), slow means it had to ramp from
 * baseline (bit 0). One bit per transaction, so half of IChannels'
 * throughput at the same transaction pacing (Fig. 12a: 2×).
 */

#ifndef ICH_BASELINES_NETSPECTRE_HH
#define ICH_BASELINES_NETSPECTRE_HH

#include "channels/channel.hh"

namespace ich
{

/** NetSpectre-style 1-bit-per-transaction channel. */
class NetSpectre : public CovertLink
{
  public:
    explicit NetSpectre(ChannelConfig cfg);

    const ChannelConfig &config() const { return cfg_; }

  private:
    ChannelConfig cfg_;
    std::uint64_t runCounter_ = 0;

    std::vector<double> measure(const std::vector<int> &bits,
                                bool with_noise) override;
};

} // namespace ich

#endif // ICH_BASELINES_NETSPECTRE_HH
