/**
 * @file
 * IccCoresCovert (paper §4.3): covert channel between threads on two
 * different physical cores. Exploits Multi-Throttling-Cores: sender and
 * receiver synchronize via the wall clock (rdtsc) and execute PHIs within
 * a few hundred cycles of each other; because the central PMU serializes
 * voltage transitions on the shared rail, the receiver's 128b_Heavy probe
 * stays throttled until the *sender's* transition (length ∝ the sender's
 * 2-bit symbol) and its own both complete.
 */

#ifndef ICH_CHANNELS_CORES_CHANNEL_HH
#define ICH_CHANNELS_CORES_CHANNEL_HH

#include "channels/channel.hh"

namespace ich
{

/** Cross-core covert channel. */
class IccCoresCovert : public CovertChannel
{
  public:
    explicit IccCoresCovert(ChannelConfig cfg);

    ChannelKind kind() const override { return ChannelKind::kCores; }

  protected:
    std::vector<double>
    runOnSimulation(Simulation &sim, const std::vector<InstClass> &sender,
                    bool with_noise) override;
};

} // namespace ich

#endif // ICH_CHANNELS_CORES_CHANNEL_HH
