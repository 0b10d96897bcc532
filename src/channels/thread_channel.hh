/**
 * @file
 * IccThreadCovert (paper §4.1): covert channel between two execution
 * contexts time-sharing the *same hardware thread* (e.g. two sandboxed
 * code regions of one process). Exploits Multi-Throttling-Thread: the
 * receiver's fixed 512b_Heavy probe loop is throttled for a period that
 * depends on the voltage level the sender's PHI loop left behind — lower
 * sender intensity ⇒ more remaining voltage to ramp ⇒ longer probe TP.
 */

#ifndef ICH_CHANNELS_THREAD_CHANNEL_HH
#define ICH_CHANNELS_THREAD_CHANNEL_HH

#include "channels/channel.hh"

namespace ich
{

/** Same-hardware-thread covert channel. */
class IccThreadCovert : public CovertChannel
{
  public:
    explicit IccThreadCovert(ChannelConfig cfg)
        : CovertChannel(std::move(cfg))
    {
    }

    ChannelKind kind() const override { return ChannelKind::kThread; }

  protected:
    std::vector<double>
    runOnSimulation(Simulation &sim, const std::vector<InstClass> &sender,
                    bool with_noise) override;
};

} // namespace ich

#endif // ICH_CHANNELS_THREAD_CHANNEL_HH
