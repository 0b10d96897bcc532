/**
 * @file
 * Error-control coding for noisy covert channels (paper §6.3 "Mitigating
 * the Effects of System Noise": averaging / error detection & correction
 * codes as used by several covert-channel works [17, 24, 57, 70, 92]).
 *
 * Provided schemes: k-repetition with majority vote, Hamming(7,4) single
 * error correction, and CRC-16/CCITT for end-to-end detection.
 */

#ifndef ICH_CHANNELS_CODING_HH
#define ICH_CHANNELS_CODING_HH

#include <cstdint>
#include <vector>

namespace ich
{

using BitVec = std::vector<std::uint8_t>;

/** @name Bit/byte conversion (LSB-first within each byte) */
///@{
BitVec bytesToBits(const std::vector<std::uint8_t> &bytes);
std::vector<std::uint8_t> bitsToBytes(const BitVec &bits);
///@}

/** @name k-repetition code */
///@{
BitVec repetitionEncode(const BitVec &bits, int k);
BitVec repetitionDecode(const BitVec &coded, int k);
///@}

/** @name Hamming(7,4): corrects any single bit error per 7-bit block */
///@{
BitVec hammingEncode(const BitVec &bits);
BitVec hammingDecode(const BitVec &coded);
///@}

/** CRC-16/CCITT-FALSE over a bit vector (MSB-first). */
std::uint16_t crc16(const BitVec &bits);

/** Count positions where @p a and @p b differ (up to the shorter size). */
std::size_t hammingDistance(const BitVec &a, const BitVec &b);

} // namespace ich

#endif // ICH_CHANNELS_CODING_HH
