/**
 * @file
 * Tests for the CRC-framed chunk layer (state/chunkio.hh) and the
 * columnar result store built on it (exp/colstore.hh): bit-exact round
 * trips, torn-tail recovery to a whole-point prefix, adoption of an
 * interrupted store, and loud rejection of corrupt or conflicting data.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/colstore.hh"
#include "exp/driver.hh"
#include "exp/resume.hh"
#include "exp/scenario.hh"
#include "state/chunkio.hh"

namespace ich
{
namespace
{

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string &name)
        : path(fs::path(::testing::TempDir()) / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string file(const std::string &name) const
    {
        return (path / name).string();
    }
};

std::uint64_t
bitsOf(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

void
flipByteAt(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

// ------------------------------------------------------- chunk framing

TEST(ChunkIo, RoundTripFrames)
{
    TempDir dir("chunkio_roundtrip");
    std::string path = dir.file("frames.bin");

    state::Buffer a = {1, 2, 3, 4, 5};
    state::Buffer b; // empty body is legal
    state::Buffer c(1000, 0xAB);
    {
        state::ChunkFileWriter w;
        w.create(path, /*durable=*/false);
        w.append(7, a);
        w.append(8, b);
        w.append(9, c);
        w.close();
    }

    state::ChunkFileScanner scan(path);
    state::ChunkFrame frame;
    ASSERT_TRUE(scan.next(frame));
    EXPECT_EQ(frame.kind, 7u);
    EXPECT_EQ(frame.body, a);
    ASSERT_TRUE(scan.next(frame));
    EXPECT_EQ(frame.kind, 8u);
    EXPECT_TRUE(frame.body.empty());
    ASSERT_TRUE(scan.next(frame));
    EXPECT_EQ(frame.kind, 9u);
    EXPECT_EQ(frame.body, c);
    EXPECT_FALSE(scan.next(frame));
    EXPECT_FALSE(scan.tornTail());
    EXPECT_EQ(scan.validBytes(), scan.fileSize());
}

// Torn-tail detection and reopen-truncation are covered exhaustively —
// at every byte offset — by tests/test_torn_matrix.cc.

TEST(ChunkIo, CorruptBodyIsRejectedNotTreatedAsTorn)
{
    TempDir dir("chunkio_corrupt");
    std::string path = dir.file("frames.bin");
    state::Buffer body = {1, 2, 3, 4, 5, 6, 7, 8};
    {
        state::ChunkFileWriter w;
        w.create(path, false);
        w.append(1, body);
        w.close();
    }
    flipByteAt(path, 12 + 2); // inside the body: CRC must catch it

    state::ChunkFileScanner scan(path);
    state::ChunkFrame frame;
    EXPECT_THROW(scan.next(frame), state::ArchiveError);
}

TEST(ChunkIo, BadMagicIsRejected)
{
    TempDir dir("chunkio_magic");
    std::string path = dir.file("frames.bin");
    {
        state::ChunkFileWriter w;
        w.create(path, false);
        w.append(1, {9, 9});
        w.close();
    }
    flipByteAt(path, 0);

    state::ChunkFileScanner scan(path);
    state::ChunkFrame frame;
    EXPECT_THROW(scan.next(frame), state::ArchiveError);
}

// ------------------------------------------------------- column store

exp::SweepMeta
makeMeta(int trials = 2, std::uint64_t seed = 42)
{
    exp::ScenarioSpec spec;
    spec.name = "colstore-grid";
    spec.description = "store round-trip grid";
    spec.axes = {exp::axis("x", {1.0, 2.0, 3.0})};
    exp::SweepMeta meta;
    meta.scenario = spec.name;
    meta.description = spec.description;
    meta.baseSeed = seed;
    meta.trialsPerPoint = trials;
    meta.points = exp::expandPoints(spec);
    meta.gridFp = exp::gridFingerprint(meta.points);
    return meta;
}

/** Trials of one point, with bit-pattern-hostile values on point 0. */
std::vector<exp::TrialRecord>
makeRecords(const exp::SweepMeta &meta, std::size_t point_idx)
{
    std::vector<exp::TrialRecord> recs;
    for (int t = 0; t < meta.trialsPerPoint; ++t) {
        exp::TrialRecord rec;
        rec.pointIndex = point_idx;
        rec.trial = t;
        rec.seed = exp::deriveTrialSeed(
            meta.baseSeed,
            point_idx * static_cast<std::size_t>(meta.trialsPerPoint) +
                static_cast<std::size_t>(t));
        if (point_idx == 0 && t == 0) {
            rec.metrics["ber"] = -0.0;       // sign must survive
            rec.metrics["tp"] = 3.0e-310;    // subnormal
        } else {
            rec.metrics["ber"] = 0.1 + 0.2 * point_idx + 0.01 * t;
            rec.metrics["tp"] = 1e6 / (1.0 + point_idx + t);
        }
        recs.push_back(std::move(rec));
    }
    return recs;
}

void
expectBitEqual(const std::vector<exp::TrialRecord> &a,
               const std::vector<exp::TrialRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pointIndex, b[i].pointIndex);
        EXPECT_EQ(a[i].trial, b[i].trial);
        EXPECT_EQ(a[i].seed, b[i].seed);
        ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
        auto ia = a[i].metrics.begin();
        auto ib = b[i].metrics.begin();
        for (; ia != a[i].metrics.end(); ++ia, ++ib) {
            EXPECT_EQ(ia->first, ib->first);
            EXPECT_EQ(bitsOf(ia->second), bitsOf(ib->second));
        }
    }
}

TEST(ColStore, WriteReadRoundTripIsBitExact)
{
    TempDir dir("colstore_roundtrip");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();

    exp::ColumnStoreWriter w(path);
    w.beginSweep(meta);
    // Completion order is not index order — the store must not care.
    for (std::size_t idx : {2u, 0u, 1u}) {
        auto recs = makeRecords(meta, idx);
        w.acceptPoint(idx, recs.data(), recs.size());
    }
    w.endSweep();

    exp::ColumnStoreReader r(path);
    EXPECT_EQ(r.scenario(), meta.scenario);
    EXPECT_EQ(r.description(), meta.description);
    EXPECT_EQ(r.baseSeed(), meta.baseSeed);
    EXPECT_EQ(r.trialsPerPoint(), meta.trialsPerPoint);
    EXPECT_EQ(r.numPoints(), meta.numPoints());
    EXPECT_EQ(r.gridFp(), meta.gridFp);
    EXPECT_TRUE(r.matches(meta));
    EXPECT_TRUE(r.cleanFooter());
    EXPECT_FALSE(r.tornTail());
    EXPECT_EQ(r.completedPoints(), 3u);
    EXPECT_EQ(r.totalRecords(), 6u);

    // forEachPoint visits ascending point order regardless of
    // completion order, and every value round-trips bit-exactly.
    std::vector<std::size_t> order;
    r.forEachPoint([&](std::size_t idx,
                       const std::vector<exp::TrialRecord> &recs) {
        order.push_back(idx);
        expectBitEqual(recs, makeRecords(meta, idx));
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));

    EXPECT_TRUE(r.hasPoint(1));
    EXPECT_FALSE(r.hasPoint(3));
    expectBitEqual(r.readPoint(0), makeRecords(meta, 0));
    EXPECT_THROW(r.readPoint(3), std::out_of_range);
}

TEST(ColStore, MatchesIgnoresDescriptionButNotIdentity)
{
    TempDir dir("colstore_matches");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();
    {
        exp::ColumnStoreWriter w(path);
        w.beginSweep(meta);
        w.endSweep();
    }
    exp::ColumnStoreReader r(path);

    exp::SweepMeta reworded = meta;
    reworded.description = "same sweep, new words";
    EXPECT_TRUE(r.matches(reworded));

    exp::SweepMeta other_seed = meta;
    other_seed.baseSeed = 43;
    EXPECT_FALSE(r.matches(other_seed));

    exp::SweepMeta other_grid = meta;
    other_grid.gridFp ^= 1;
    EXPECT_FALSE(r.matches(other_grid));

    exp::SweepMeta other_trials = meta;
    other_trials.trialsPerPoint = 3;
    EXPECT_FALSE(r.matches(other_trials));
}

TEST(ColStore, InterruptedStoreIsReadableWithoutFooter)
{
    TempDir dir("colstore_interrupted");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();

    {
        exp::ColumnStoreWriter::Options opts;
        opts.durable = true;
        exp::ColumnStoreWriter w(path, opts);
        w.beginSweep(meta);
        for (std::size_t idx : {0u, 1u}) {
            auto recs = makeRecords(meta, idx);
            w.acceptPoint(idx, recs.data(), recs.size());
        }
        // No endSweep(): the sweep was interrupted.
    }

    exp::ColumnStoreReader r(path);
    EXPECT_FALSE(r.cleanFooter());
    EXPECT_EQ(r.completedPoints(), 2u);
    expectBitEqual(r.readPoint(1), makeRecords(meta, 1));
}

TEST(ColStore, AdoptionContinuesAnInterruptedStore)
{
    TempDir dir("colstore_adopt");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();

    {
        exp::ColumnStoreWriter::Options opts;
        opts.durable = true;
        exp::ColumnStoreWriter w(path, opts);
        w.beginSweep(meta);
        for (std::size_t idx : {0u, 1u}) {
            auto recs = makeRecords(meta, idx);
            w.acceptPoint(idx, recs.data(), recs.size());
        }
    }
    {
        exp::ColumnStoreWriter w(path);
        w.beginSweep(meta);
        EXPECT_EQ(w.adoptedPoints(), 2u);
        auto recs = makeRecords(meta, 2);
        w.acceptPoint(2, recs.data(), recs.size());
        w.endSweep();
    }

    exp::ColumnStoreReader r(path);
    EXPECT_TRUE(r.cleanFooter());
    EXPECT_EQ(r.completedPoints(), 3u);
    for (std::size_t idx = 0; idx < 3; ++idx)
        expectBitEqual(r.readPoint(idx), makeRecords(meta, idx));
}

TEST(ColStore, DifferentSweepRecreatesTheFile)
{
    TempDir dir("colstore_recreate");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta old_meta = makeMeta(2, 42);
    {
        exp::ColumnStoreWriter w(path);
        w.beginSweep(old_meta);
        auto recs = makeRecords(old_meta, 0);
        w.acceptPoint(0, recs.data(), recs.size());
        w.endSweep();
    }

    exp::SweepMeta new_meta = makeMeta(2, 99);
    exp::ColumnStoreWriter w(path);
    w.beginSweep(new_meta);
    EXPECT_EQ(w.adoptedPoints(), 0u);
    auto recs = makeRecords(new_meta, 1);
    w.acceptPoint(1, recs.data(), recs.size());
    w.endSweep();

    exp::ColumnStoreReader r(path);
    EXPECT_TRUE(r.matches(new_meta));
    EXPECT_FALSE(r.matches(old_meta));
    EXPECT_EQ(r.completedPoints(), 1u);
    EXPECT_TRUE(r.hasPoint(1));
    EXPECT_FALSE(r.hasPoint(0));
}

// Truncation recovery is covered at every byte offset (including
// adoption back to a bit-identical store) by tests/test_torn_matrix.cc.

TEST(ColStore, CorruptDataChunkIsRejected)
{
    TempDir dir("colstore_corrupt");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();
    {
        exp::ColumnStoreWriter w(path);
        w.beginSweep(meta);
        for (std::size_t idx : {0u, 1u, 2u}) {
            auto recs = makeRecords(meta, idx);
            w.acceptPoint(idx, recs.data(), recs.size());
        }
        w.endSweep();
    }

    // Find the data frame and flip a byte inside its body.
    std::uint64_t data_off = 0;
    {
        state::ChunkFileScanner scan(path);
        state::ChunkFrame frame;
        while (scan.next(frame)) {
            if (frame.kind == exp::kColChunkData) {
                data_off = scan.lastFrameOffset();
                break;
            }
        }
        ASSERT_GT(data_off, 0u);
    }
    flipByteAt(path, data_off + 12 + 8); // 12-byte frame head, then body

    EXPECT_THROW(exp::ColumnStoreReader r(path), state::ArchiveError);
}

TEST(ColStore, IdenticalDuplicatePointsDedupe)
{
    TempDir dir("colstore_dup_ok");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();
    exp::ColumnStoreWriter w(path);
    w.beginSweep(meta);
    auto recs = makeRecords(meta, 1);
    // A crashed worker can legitimately complete the same point twice.
    w.acceptPoint(1, recs.data(), recs.size());
    w.acceptPoint(1, recs.data(), recs.size());
    w.endSweep();

    exp::ColumnStoreReader r(path);
    EXPECT_EQ(r.completedPoints(), 1u);
    expectBitEqual(r.readPoint(1), recs);
}

TEST(ColStore, ConflictingDuplicatePointsAreRejected)
{
    TempDir dir("colstore_dup_bad");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();
    exp::ColumnStoreWriter w(path);
    w.beginSweep(meta);
    auto recs = makeRecords(meta, 1);
    w.acceptPoint(1, recs.data(), recs.size());
    recs[0].metrics["ber"] = 0.5; // different bits for the same point
    w.acceptPoint(1, recs.data(), recs.size());
    w.endSweep();

    EXPECT_THROW(exp::ColumnStoreReader r(path), state::ArchiveError);
}

TEST(ColStore, RowsOutOfTrialOrderAreRejected)
{
    TempDir dir("colstore_order");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();
    exp::ColumnStoreWriter w(path);
    w.beginSweep(meta);
    auto recs = makeRecords(meta, 0);
    std::swap(recs[0], recs[1]); // trial 1 before trial 0
    w.acceptPoint(0, recs.data(), recs.size());
    w.endSweep();

    EXPECT_THROW(exp::ColumnStoreReader r(path), state::ArchiveError);
}

TEST(ColStore, SparseMetricColumnsRoundTrip)
{
    TempDir dir("colstore_sparse");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();

    // Trials emit different metric sets: the presence bitmap must keep
    // every (row, column) association exact.
    std::vector<exp::TrialRecord> recs(2);
    recs[0].pointIndex = 0;
    recs[0].trial = 0;
    recs[0].seed = 11;
    recs[0].metrics["only_first"] = 1.5;
    recs[0].metrics["shared"] = 2.5;
    recs[1].pointIndex = 0;
    recs[1].trial = 1;
    recs[1].seed = 12;
    recs[1].metrics["shared"] = 3.5;
    recs[1].metrics["only_second"] = 4.5;

    exp::ColumnStoreWriter w(path);
    w.beginSweep(meta);
    w.acceptPoint(0, recs.data(), recs.size());
    w.endSweep();

    exp::ColumnStoreReader r(path);
    expectBitEqual(r.readPoint(0), recs);
}

TEST(ColStore, OnDiskBytesArePinned)
{
    // Stores already on disk must stay readable and resumable, so the
    // writer's bytes for a fixed store (set description, sparse metric
    // sets, values whose bits a text round trip would lose) are pinned
    // by size and an FNV-1a digest. Not a CRC-32: every frame ends in
    // the CRC-32 of its own bytes, so the CRC-32 of a whole chunk file
    // depends only on its frame lengths.
    TempDir dir("colstore_pinned");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();
    ASSERT_FALSE(meta.description.empty());

    std::map<std::size_t, std::vector<exp::TrialRecord>> points;
    auto add = [&](std::size_t idx, int trial, exp::MetricMap metrics) {
        exp::TrialRecord rec;
        rec.pointIndex = idx;
        rec.trial = trial;
        rec.seed = 1000 + 10 * idx + static_cast<std::uint64_t>(trial);
        rec.metrics = std::move(metrics);
        points[idx].push_back(std::move(rec));
    };
    add(0, 0, {{"ber", -0.0}, {"tp", 3e-310}});
    add(0, 1, {{"ber", 0.1 + 0.2}, {"only_second", 7.0}});
    add(1, 0, {{"ber", 0.5}, {"tp", 1e6}});
    add(1, 1, {{"tp", 2.5}});
    add(2, 0, {{"ber", 0.25}, {"tp", -1.5}});
    add(2, 1, {{"ber", 0.75}, {"tp", 3.0}});

    {
        exp::ColumnStoreWriter w(path);
        w.beginSweep(meta);
        for (std::size_t idx : {0u, 2u, 1u})
            w.acceptPoint(idx, points[idx].data(), points[idx].size());
        w.endSweep();
    }

    std::ifstream in(path, std::ios::binary);
    const state::Buffer bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    std::uint64_t digest = 1469598103934665603ull;
    for (std::uint8_t b : bytes)
        digest = (digest ^ b) * 1099511628211ull;
    EXPECT_EQ(bytes.size(), 429u);
    EXPECT_EQ(digest, 0x7e96f5bd68819a16ull);

    exp::ColumnStoreReader r(path);
    EXPECT_TRUE(r.matches(meta));
    EXPECT_EQ(r.description(), meta.description);
    EXPECT_TRUE(r.cleanFooter());
    ASSERT_EQ(r.completedPoints(), 3u);
    for (std::size_t idx = 0; idx < 3; ++idx)
        expectBitEqual(r.readPoint(idx), points[idx]);
    EXPECT_TRUE(std::signbit(r.readPoint(0)[0].metrics.at("ber")));
}

TEST(ColStore, EmptyStoreRoundTrips)
{
    TempDir dir("colstore_empty");
    std::string path = dir.file("sweep.colstore");
    exp::SweepMeta meta = makeMeta();
    {
        exp::ColumnStoreWriter w(path);
        w.beginSweep(meta);
        w.endSweep();
    }
    exp::ColumnStoreReader r(path);
    EXPECT_TRUE(r.matches(meta));
    EXPECT_TRUE(r.cleanFooter());
    EXPECT_EQ(r.completedPoints(), 0u);
    EXPECT_EQ(r.totalRecords(), 0u);
}

TEST(ColStore, MissingFileAndMissingHeaderAreRejected)
{
    TempDir dir("colstore_nofile");
    EXPECT_THROW(exp::ColumnStoreReader r(dir.file("absent.colstore")),
                 state::ArchiveError);

    // A chunk file that is not a column store (no header chunk first).
    std::string path = dir.file("alien.colstore");
    state::ChunkFileWriter w;
    w.create(path, false);
    w.append(exp::kColChunkData, {1, 2, 3, 4});
    w.close();
    EXPECT_THROW(exp::ColumnStoreReader r(path), state::ArchiveError);
}

TEST(ColStore, StreamRerunWithoutResumeRewritesTheSpill)
{
    TempDir dir("colstore_stream_rerun");
    exp::ScenarioSpec spec;
    spec.name = "stream-rerun";
    spec.description = "re-run --stream into one directory";
    spec.axes = {exp::axis("x", {1.0, 2.0, 3.0, 4.0})};
    spec.trials = 2;
    spec.run = [](const exp::TrialContext &ctx) {
        double seed_lo = static_cast<double>(ctx.seed % 1000);
        return exp::MetricMap{{"y", ctx.point.get("x") * 0.5},
                              {"seed_lo", seed_lo}};
    };
    exp::CliOptions cli;
    cli.jobs = 1;
    cli.stream = true;
    cli.outDir = dir.path.string();
    const std::string store = exp::resultStorePath(cli.outDir, spec.name);

    std::vector<std::uintmax_t> sizes;
    for (int run = 0; run < 3; ++run) {
        exp::runAndReport(spec, cli);
        sizes.push_back(fs::file_size(store));
        exp::ColumnStoreReader r(store);
        EXPECT_EQ(r.totalRecords(), 8u) << "run " << run;
        EXPECT_EQ(r.completedPoints(), 4u) << "run " << run;
        EXPECT_TRUE(r.cleanFooter()) << "run " << run;
    }
    EXPECT_EQ(sizes[1], sizes[0]);
    EXPECT_EQ(sizes[2], sizes[0]);
}

} // namespace
} // namespace ich
