/**
 * @file
 * IccSMTcovert (paper §4.2): covert channel between two SMT threads of
 * one physical core. Exploits Multi-Throttling-SMT: while the sender's
 * PHI waits for its voltage ramp, the core blocks the shared IDQ→back-end
 * interface 3 of every 4 cycles, so the receiver's scalar 64b loop on the
 * sibling thread slows down for exactly the sender's throttling period —
 * whose length encodes the sender's 2-bit symbol.
 */

#ifndef ICH_CHANNELS_SMT_CHANNEL_HH
#define ICH_CHANNELS_SMT_CHANNEL_HH

#include "channels/channel.hh"

namespace ich
{

/** Cross-SMT covert channel. */
class IccSMTcovert : public CovertChannel
{
  public:
    explicit IccSMTcovert(ChannelConfig cfg);

    ChannelKind kind() const override { return ChannelKind::kSmt; }

  protected:
    std::vector<double>
    runOnSimulation(Simulation &sim, const std::vector<InstClass> &sender,
                    bool with_noise) override;
};

} // namespace ich

#endif // ICH_CHANNELS_SMT_CHANNEL_HH
