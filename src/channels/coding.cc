#include "channels/coding.hh"

#include <algorithm>
#include <stdexcept>

namespace ich
{

BitVec
bytesToBits(const std::vector<std::uint8_t> &bytes)
{
    BitVec bits;
    bits.reserve(bytes.size() * 8);
    for (std::uint8_t b : bytes)
        for (int i = 0; i < 8; ++i)
            bits.push_back((b >> i) & 1);
    return bits;
}

std::vector<std::uint8_t>
bitsToBytes(const BitVec &bits)
{
    std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < bits.size(); ++i)
        if (bits[i])
            bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    return bytes;
}

BitVec
repetitionEncode(const BitVec &bits, int k)
{
    if (k < 1)
        throw std::invalid_argument("repetitionEncode: k < 1");
    BitVec out;
    out.reserve(bits.size() * k);
    for (auto b : bits)
        for (int i = 0; i < k; ++i)
            out.push_back(b);
    return out;
}

BitVec
repetitionDecode(const BitVec &coded, int k)
{
    if (k < 1)
        throw std::invalid_argument("repetitionDecode: k < 1");
    BitVec out;
    out.reserve(coded.size() / k);
    for (std::size_t i = 0; i + k <= coded.size(); i += k) {
        int ones = 0;
        for (int j = 0; j < k; ++j)
            ones += coded[i + j];
        out.push_back(ones * 2 > k ? 1 : 0);
    }
    return out;
}

namespace
{

/** Encode one 4-bit nibble to a (p1 p2 d1 p3 d2 d3 d4) block. */
void
hammingEncodeNibble(const std::uint8_t d[4], BitVec &out)
{
    std::uint8_t p1 = d[0] ^ d[1] ^ d[3];
    std::uint8_t p2 = d[0] ^ d[2] ^ d[3];
    std::uint8_t p3 = d[1] ^ d[2] ^ d[3];
    out.push_back(p1);
    out.push_back(p2);
    out.push_back(d[0]);
    out.push_back(p3);
    out.push_back(d[1]);
    out.push_back(d[2]);
    out.push_back(d[3]);
}

} // namespace

BitVec
hammingEncode(const BitVec &bits)
{
    BitVec out;
    out.reserve((bits.size() + 3) / 4 * 7);
    for (std::size_t i = 0; i < bits.size(); i += 4) {
        std::uint8_t d[4] = {0, 0, 0, 0};
        for (std::size_t j = 0; j < 4 && i + j < bits.size(); ++j)
            d[j] = bits[i + j];
        hammingEncodeNibble(d, out);
    }
    return out;
}

BitVec
hammingDecode(const BitVec &coded)
{
    BitVec out;
    out.reserve(coded.size() / 7 * 4);
    for (std::size_t i = 0; i + 7 <= coded.size(); i += 7) {
        std::uint8_t b[7];
        for (int j = 0; j < 7; ++j)
            b[j] = coded[i + j];
        // Syndrome bits: positions 1,2,4 are parity.
        int s1 = b[0] ^ b[2] ^ b[4] ^ b[6];
        int s2 = b[1] ^ b[2] ^ b[5] ^ b[6];
        int s3 = b[3] ^ b[4] ^ b[5] ^ b[6];
        int syndrome = s1 | (s2 << 1) | (s3 << 2);
        if (syndrome != 0)
            b[syndrome - 1] ^= 1;
        out.push_back(b[2]);
        out.push_back(b[4]);
        out.push_back(b[5]);
        out.push_back(b[6]);
    }
    return out;
}

std::uint16_t
crc16(const BitVec &bits)
{
    std::uint16_t crc = 0xFFFF;
    for (auto bit : bits) {
        bool msb = (crc & 0x8000) != 0;
        crc = static_cast<std::uint16_t>(crc << 1);
        if (msb != (bit != 0))
            crc ^= 0x1021;
    }
    return crc;
}

std::size_t
hammingDistance(const BitVec &a, const BitVec &b)
{
    std::size_t n = std::min(a.size(), b.size());
    std::size_t d = 0;
    for (std::size_t i = 0; i < n; ++i)
        if ((a[i] != 0) != (b[i] != 0))
            ++d;
    return d;
}

} // namespace ich
