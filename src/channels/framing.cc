#include "channels/framing.hh"

#include <algorithm>

namespace ich
{

namespace
{

/** Append @p value as @p bits LSB-first bits. */
void
appendBits(BitVec &out, std::uint32_t value, int bits)
{
    for (int i = 0; i < bits; ++i)
        out.push_back(static_cast<std::uint8_t>((value >> i) & 1));
}

std::uint32_t
readBits(const BitVec &in, std::size_t pos, int bits)
{
    std::uint32_t v = 0;
    for (int i = 0; i < bits; ++i)
        if (pos + i < in.size() && in[pos + i])
            v |= 1u << i;
    return v;
}

constexpr int kSeqBits = 8;
constexpr int kCrcBits = 16;

} // namespace

const char *
toString(FecScheme scheme)
{
    switch (scheme) {
      case FecScheme::kNone:
        return "none";
      case FecScheme::kRepetition3:
        return "repetition-3";
      case FecScheme::kRepetition5:
        return "repetition-5";
      case FecScheme::kHamming74:
        return "hamming(7,4)";
    }
    return "?";
}

FramedLink::FramedLink(CovertChannel &channel, const FramingConfig &cfg)
    : channel_(channel), cfg_(cfg)
{
}

double
FramedLink::codeRate() const
{
    switch (cfg_.fec) {
      case FecScheme::kNone:
        return 1.0;
      case FecScheme::kRepetition3:
        return 3.0;
      case FecScheme::kRepetition5:
        return 5.0;
      case FecScheme::kHamming74:
        return 7.0 / 4.0;
    }
    return 1.0;
}

BitVec
FramedLink::encode(const BitVec &bits) const
{
    switch (cfg_.fec) {
      case FecScheme::kNone:
        return bits;
      case FecScheme::kRepetition3:
        return repetitionEncode(bits, 3);
      case FecScheme::kRepetition5:
        return repetitionEncode(bits, 5);
      case FecScheme::kHamming74:
        return hammingEncode(bits);
    }
    return bits;
}

BitVec
FramedLink::decode(const BitVec &coded) const
{
    switch (cfg_.fec) {
      case FecScheme::kNone:
        return coded;
      case FecScheme::kRepetition3:
        return repetitionDecode(coded, 3);
      case FecScheme::kRepetition5:
        return repetitionDecode(coded, 5);
      case FecScheme::kHamming74:
        return hammingDecode(coded);
    }
    return coded;
}

FramedResult
FramedLink::transfer(const BitVec &payload)
{
    FramedResult res;
    double ber_sum = 0.0;
    int transmissions = 0;

    std::size_t n_frames =
        (payload.size() + cfg_.frameBits - 1) / cfg_.frameBits;
    BitVec assembled;

    for (std::size_t f = 0; f < n_frames; ++f) {
        // Build the frame: seq + payload slice (zero-padded) + CRC.
        BitVec frame;
        appendBits(frame, static_cast<std::uint32_t>(f & 0xFF),
                   kSeqBits);
        std::size_t lo = f * cfg_.frameBits;
        std::size_t hi = std::min(payload.size(), lo + cfg_.frameBits);
        BitVec body(payload.begin() + lo, payload.begin() + hi);
        body.resize(cfg_.frameBits, 0);
        frame.insert(frame.end(), body.begin(), body.end());
        appendBits(frame, crc16(body), kCrcBits);

        BitVec coded = encode(frame);

        bool delivered = false;
        for (int attempt = 0;
             attempt < cfg_.maxAttempts && !delivered; ++attempt) {
            TransmitResult tx = channel_.transmit(coded);
            ++transmissions;
            ber_sum += tx.ber;
            res.channelBits += tx.sentBits.size();
            res.seconds += tx.seconds;

            BitVec rx = decode(tx.receivedBits);
            if (rx.size() < frame.size())
                continue;
            std::uint32_t seq = readBits(rx, 0, kSeqBits);
            BitVec rx_body(rx.begin() + kSeqBits,
                           rx.begin() + kSeqBits +
                               static_cast<long>(cfg_.frameBits));
            auto rx_crc = static_cast<std::uint16_t>(
                readBits(rx, kSeqBits + cfg_.frameBits, kCrcBits));
            if (seq == (f & 0xFF) && crc16(rx_body) == rx_crc) {
                delivered = true;
                ++res.framesDelivered;
                assembled.insert(assembled.end(), rx_body.begin(),
                                 rx_body.end());
            }
        }
        if (!delivered) {
            res.framesSent = transmissions;
            res.rawBerObserved = ber_sum / transmissions;
            return res; // failure: payload left empty
        }
    }

    assembled.resize(payload.size());
    res.payload = std::move(assembled);
    res.success = true;
    res.framesSent = transmissions;
    res.rawBerObserved =
        transmissions > 0 ? ber_sum / transmissions : 0.0;
    res.goodputBps =
        res.seconds > 0.0 ? payload.size() / res.seconds : 0.0;
    return res;
}

} // namespace ich
