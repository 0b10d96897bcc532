/**
 * @file
 * Tests for the error-control coding helpers (§6.3).
 */

#include <gtest/gtest.h>

#include "channels/coding.hh"

namespace ich
{
namespace
{

TEST(Coding, BytesBitsRoundTrip)
{
    std::vector<std::uint8_t> bytes = {0x00, 0xFF, 0xA5, 0x3C};
    BitVec bits = bytesToBits(bytes);
    EXPECT_EQ(bits.size(), 32u);
    EXPECT_EQ(bitsToBytes(bits), bytes);
}

TEST(Coding, BitsLsbFirst)
{
    BitVec bits = bytesToBits({0x01});
    EXPECT_EQ(bits[0], 1);
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(bits[i], 0);
}

TEST(Coding, RepetitionRoundTrip)
{
    BitVec bits = {1, 0, 1, 1, 0};
    BitVec coded = repetitionEncode(bits, 3);
    EXPECT_EQ(coded.size(), 15u);
    EXPECT_EQ(repetitionDecode(coded, 3), bits);
}

TEST(Coding, RepetitionMajorityCorrectsMinorityErrors)
{
    BitVec bits = {1, 0};
    BitVec coded = repetitionEncode(bits, 5);
    coded[0] ^= 1; // 1 error in first group
    coded[6] ^= 1;
    coded[7] ^= 1; // 2 errors in second group of 5
    EXPECT_EQ(repetitionDecode(coded, 5), bits);
}

TEST(Coding, RepetitionRejectsBadK)
{
    EXPECT_THROW(repetitionEncode({1}, 0), std::invalid_argument);
    EXPECT_THROW(repetitionDecode({1}, 0), std::invalid_argument);
}

TEST(Coding, HammingRoundTripAllNibbles)
{
    for (int n = 0; n < 16; ++n) {
        BitVec bits = {static_cast<std::uint8_t>(n & 1),
                       static_cast<std::uint8_t>((n >> 1) & 1),
                       static_cast<std::uint8_t>((n >> 2) & 1),
                       static_cast<std::uint8_t>((n >> 3) & 1)};
        EXPECT_EQ(hammingDecode(hammingEncode(bits)), bits);
    }
}

TEST(Coding, HammingCorrectsAnySingleBitError)
{
    BitVec bits = {1, 0, 1, 1, 0, 1, 0, 0}; // two nibbles
    BitVec coded = hammingEncode(bits);
    ASSERT_EQ(coded.size(), 14u);
    for (std::size_t flip = 0; flip < coded.size(); ++flip) {
        BitVec corrupted = coded;
        corrupted[flip] ^= 1;
        EXPECT_EQ(hammingDecode(corrupted), bits)
            << "flip at " << flip;
    }
}

TEST(Coding, HammingPadsPartialNibble)
{
    BitVec bits = {1, 0, 1}; // 3 bits: padded to a nibble
    BitVec decoded = hammingDecode(hammingEncode(bits));
    ASSERT_GE(decoded.size(), 3u);
    EXPECT_EQ(decoded[0], 1);
    EXPECT_EQ(decoded[1], 0);
    EXPECT_EQ(decoded[2], 1);
}

TEST(Coding, Crc16KnownProperties)
{
    BitVec a = {1, 0, 1, 1, 0, 0, 1, 0};
    BitVec b = a;
    EXPECT_EQ(crc16(a), crc16(b));
    b[3] ^= 1;
    EXPECT_NE(crc16(a), crc16(b));
    // Empty input: initial value.
    EXPECT_EQ(crc16({}), 0xFFFF);
}

TEST(Coding, HammingDistance)
{
    EXPECT_EQ(hammingDistance({1, 0, 1}, {1, 1, 1}), 1u);
    EXPECT_EQ(hammingDistance({1, 0}, {1, 0}), 0u);
    EXPECT_EQ(hammingDistance({1, 1, 1}, {0, 0}), 2u); // shorter size
}

} // namespace
} // namespace ich
