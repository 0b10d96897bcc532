/**
 * @file
 * Tests for the StateArchive container: typed round trips, section
 * indexing, and — critically for the resume/corruption story — clean
 * ArchiveError diagnostics for truncation, bit-rot (CRC), version skew
 * and reader/writer type drift. None of these may be UB (the ASan CI
 * job runs this file too). The CRC-32 under every archive and chunk
 * frame is checked against a bitwise oracle.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>

#include "state/archive.hh"

namespace ich
{
namespace
{

using state::ArchiveError;
using state::ArchiveReader;
using state::ArchiveWriter;
using state::Buffer;
using state::SectionReader;

Buffer
sampleArchive()
{
    ArchiveWriter w;
    w.beginSection("alpha");
    w.putBool(true);
    w.putU8(0xAB);
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putI32(-42);
    w.putF64(1.0 / 3.0);
    w.putString("hello archive");
    w.endSection();
    w.beginSection("beta");
    w.putU64(7);
    w.endSection();
    return w.finish();
}

TEST(StateArchive, RoundTripsEveryType)
{
    ArchiveReader r(sampleArchive());
    SectionReader s = r.open("alpha");
    EXPECT_TRUE(s.getBool());
    EXPECT_EQ(s.getU8(), 0xAB);
    EXPECT_EQ(s.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(s.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(s.getI32(), -42);
    EXPECT_EQ(s.getF64(), 1.0 / 3.0);
    EXPECT_EQ(s.getString(), "hello archive");
    EXPECT_EQ(s.remaining(), 0u);

    SectionReader b = r.open("beta");
    EXPECT_EQ(b.getU64(), 7u);
}

TEST(StateArchive, DoublesRoundTripBitExactly)
{
    ArchiveWriter w;
    w.beginSection("f");
    w.putF64(0.1 + 0.2);
    w.putF64(-0.0);
    w.putF64(std::numeric_limits<double>::denorm_min());
    w.putF64(std::numeric_limits<double>::infinity());
    w.endSection();
    ArchiveReader r(w.finish());
    SectionReader s = r.open("f");
    EXPECT_EQ(s.getF64(), 0.1 + 0.2);
    double neg_zero = s.getF64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(s.getF64(), std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(s.getF64(), std::numeric_limits<double>::infinity());
}

TEST(StateArchive, SectionListingAndMissingSection)
{
    ArchiveReader r(sampleArchive());
    EXPECT_TRUE(r.has("alpha"));
    EXPECT_FALSE(r.has("gamma"));
    auto names = r.sectionNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_THROW(r.open("gamma"), ArchiveError);
}

TEST(StateArchive, TypeTagMismatchThrows)
{
    ArchiveReader r(sampleArchive());
    SectionReader s = r.open("beta");
    // Section holds a u64; asking for a string must fail loudly.
    EXPECT_THROW(s.getString(), ArchiveError);
}

TEST(StateArchive, ReadingPastSectionEndThrows)
{
    ArchiveReader r(sampleArchive());
    SectionReader s = r.open("beta");
    EXPECT_EQ(s.getU64(), 7u);
    EXPECT_THROW(s.getU64(), ArchiveError);
}

TEST(StateArchive, EveryTruncationThrowsCleanly)
{
    Buffer full = sampleArchive();
    for (std::size_t len = 0; len < full.size(); ++len) {
        Buffer cut(full.begin(), full.begin() + len);
        EXPECT_THROW(ArchiveReader r(std::move(cut)), ArchiveError)
            << "truncation to " << len << " bytes not detected";
    }
}

TEST(StateArchive, BitRotFailsTheCrc)
{
    Buffer full = sampleArchive();
    // Flip one bit in every payload byte position in turn.
    for (std::size_t i = 20; i < full.size(); ++i) {
        Buffer bad = full;
        bad[i] ^= 0x01;
        EXPECT_THROW(ArchiveReader r(std::move(bad)), ArchiveError)
            << "bit flip at " << i << " not detected";
    }
}

TEST(StateArchive, VersionMismatchNamesBothVersions)
{
    Buffer bad = sampleArchive();
    bad[4] = 0x7F; // version field (little-endian u32 at offset 4)
    try {
        ArchiveReader r(std::move(bad));
        FAIL() << "version mismatch not detected";
    } catch (const ArchiveError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(StateArchive, BadMagicThrows)
{
    Buffer bad = sampleArchive();
    bad[0] = 'X';
    EXPECT_THROW(ArchiveReader r(std::move(bad)), ArchiveError);
}

TEST(StateArchive, AtomicFileWriteLeavesNoTemp)
{
    std::string path = ::testing::TempDir() + "archive_atomic.snap";
    ArchiveWriter w;
    w.beginSection("s");
    w.putU32(99);
    w.endSection();
    w.writeFile(path);

    // The temp staging file must be gone after the rename.
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);

    ArchiveReader r = ArchiveReader::fromFile(path);
    EXPECT_EQ(r.open("s").getU32(), 99u);
    std::remove(path.c_str());
}

TEST(StateArchive, ValueOutsideSectionThrows)
{
    ArchiveWriter w;
    EXPECT_THROW(w.putU32(1), ArchiveError);
    w.beginSection("s");
    EXPECT_THROW(w.beginSection("t"), ArchiveError);
    w.endSection();
    EXPECT_THROW(w.endSection(), ArchiveError);
}

/**
 * Oracle for state::crc32: the plain bitwise CRC-32 (reflected, poly
 * 0xEDB88320), one bit per step. Every archive, chunk frame and column
 * store on disk carries CRCs of this function, so the table-driven
 * version must agree with it on every input.
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
