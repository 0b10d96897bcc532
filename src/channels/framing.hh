/**
 * @file
 * Reliable framed transfer over a covert channel (paper §6.3).
 *
 * The paper lists three noise-handling strategies attackers use:
 * repeated transmission/averaging, error detection & correction codes,
 * and transmitting only during low-noise periods. FramedLink packages
 * them into a protocol: payloads are split into frames
 * (header + payload + CRC-16), protected by a selectable FEC scheme, and
 * retransmitted until the CRC verifies or the retry budget is exhausted.
 */

#ifndef ICH_CHANNELS_FRAMING_HH
#define ICH_CHANNELS_FRAMING_HH

#include <cstdint>

#include "channels/channel.hh"
#include "channels/coding.hh"

namespace ich
{

/** Forward error correction applied to each frame. */
enum class FecScheme { kNone, kRepetition3, kRepetition5, kHamming74 };

const char *toString(FecScheme scheme);

/** Framed-link configuration. */
struct FramingConfig {
    FecScheme fec = FecScheme::kHamming74;
    /** Payload bits per frame (before FEC). */
    std::size_t frameBits = 64;
    /** Maximum transmissions per frame (1 = no retry). */
    int maxAttempts = 4;
};

/** Result of a framed transfer. */
struct FramedResult {
    BitVec payload;           ///< decoded payload (empty on failure)
    bool success = false;     ///< all frames CRC-verified
    int framesSent = 0;       ///< total frame transmissions (w/ retries)
    int framesDelivered = 0;  ///< frames accepted by the receiver
    std::size_t channelBits = 0; ///< raw bits pushed through the channel
    double seconds = 0.0;        ///< simulated channel time consumed
    /** Payload bits per second including coding + retry overhead. */
    double goodputBps = 0.0;
    double rawBerObserved = 0.0; ///< mean BER across transmissions
};

/**
 * Reliable transfer layer over any CovertChannel.
 */
class FramedLink
{
  public:
    FramedLink(CovertChannel &channel, const FramingConfig &cfg);

    /** Transfer @p payload; returns the receiver-side reconstruction. */
    FramedResult transfer(const BitVec &payload);

    /** Coding expansion factor of the configured FEC. */
    double codeRate() const;

    const FramingConfig &config() const { return cfg_; }

  private:
    CovertChannel &channel_;
    FramingConfig cfg_;

    BitVec encode(const BitVec &bits) const;
    BitVec decode(const BitVec &coded) const;
};

} // namespace ich

#endif // ICH_CHANNELS_FRAMING_HH
