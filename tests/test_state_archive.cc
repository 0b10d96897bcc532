/**
 * @file
 * Tests for state::crc32, the checksum under every chunk frame and
 * column store on disk: the table-driven implementation is checked
 * against a bitwise oracle at every length, offset and chain split.
 */

#include <gtest/gtest.h>

#include <random>

#include "state/chunkio.hh"

namespace ich
{
namespace
{

using state::Buffer;

/**
 * Oracle for state::crc32: the plain bitwise CRC-32 (reflected, poly
 * 0xEDB88320), one bit per step. Every chunk frame and column store
 * on disk carries CRCs of this function, so the table-driven version
 * must agree with it on every input.
 */
std::uint32_t
bitwiseCrc32(const std::uint8_t *data, std::size_t size,
             std::uint32_t seed = 0)
{
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

Buffer
seededBytes(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    Buffer out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng());
    return out;
}

TEST(Crc32, StandardCheckValueAndEmptyInput)
{
    const char check[] = "123456789";
    EXPECT_EQ(state::crc32(reinterpret_cast<const std::uint8_t *>(check),
                           9),
              0xCBF43926u);
    Buffer empty;
    EXPECT_EQ(state::crc32(empty.data(), 0), 0u);
}

TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndOffset)
{
    // Lengths 0..64 at start offsets 0..7 run both the 8-byte body and
    // every tail length, at every alignment.
    const Buffer buf = seededBytes(4096, 0xC4C32);
    for (std::size_t off = 0; off < 8; ++off)
        for (std::size_t len = 0; len <= 64; ++len)
            ASSERT_EQ(state::crc32(buf.data() + off, len),
                      bitwiseCrc32(buf.data() + off, len))
                << "offset " << off << ", length " << len;
    EXPECT_EQ(state::crc32(buf.data(), buf.size()),
              bitwiseCrc32(buf.data(), buf.size()));
    for (std::uint32_t seed : {0x1u, 0xCBF43926u, 0xFFFFFFFFu})
        EXPECT_EQ(state::crc32(buf.data() + 3, 1000, seed),
                  bitwiseCrc32(buf.data() + 3, 1000, seed))
            << "seed " << seed;
}

TEST(Crc32, ChainedEqualsOneShotAtEverySplit)
{
    const Buffer buf = seededBytes(1024, 0x5911);
    const std::uint32_t whole = state::crc32(buf.data(), buf.size());
    for (std::size_t split = 0; split <= buf.size(); ++split)
        ASSERT_EQ(state::crc32(buf.data() + split, buf.size() - split,
                               state::crc32(buf.data(), split)),
                  whole)
            << "split at " << split;
}

} // namespace
} // namespace ich
