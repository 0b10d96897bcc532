/**
 * @file
 * Tests for the seeded fault-injection layer (src/fault/) and the
 * io::FileOps seam it drives: plan-spec parsing, occurrence counting,
 * and end-to-end in-process injection through the chunkio/colstore
 * stack (EINTR must be retried transparently, errors must throw loudly
 * with path and site, torn/bitflip corruption must be caught by the
 * frame CRC). Crash and torn kinds are exercised out-of-process by
 * bench/torture_crashpoints; in-process tests stick to survivable
 * faults.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "exp/colstore.hh"
#include "fault/fault.hh"
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

/** Every test leaves the process disarmed, pass or fail. */
struct Disarmed {
    ~Disarmed() { fault::disarm(); }
};

// ------------------------------------------------------------- parsing

TEST(FaultPlan, ParsesSeedAndRules)
{
    fault::Plan plan = fault::parsePlan(
        "seed=99;site=chunk.write:op=write:occ=3:fault=torn:arg=7;"
        "site=chunk.read:op=read:occ=0:fault=eintr:path=store");
    EXPECT_EQ(plan.seed, 99u);
    ASSERT_EQ(plan.rules.size(), 2u);
    EXPECT_EQ(plan.rules[0].site, "chunk.write");
    EXPECT_EQ(plan.rules[0].op, "write");
    EXPECT_EQ(plan.rules[0].occ, 3u);
    EXPECT_EQ(plan.rules[0].kind, fault::Kind::kTorn);
    EXPECT_EQ(plan.rules[0].arg, 7u);
    EXPECT_EQ(plan.rules[1].site, "chunk.read");
    EXPECT_EQ(plan.rules[1].occ, 0u);
    EXPECT_EQ(plan.rules[1].kind, fault::Kind::kEintr);
    EXPECT_EQ(plan.rules[1].arg, fault::kNoArg);
    EXPECT_EQ(plan.rules[1].pathSub, "store");
}

TEST(FaultPlan, DefaultsAndWildcards)
{
    fault::Plan plan = fault::parsePlan("site=*:fault=crash");
    EXPECT_EQ(plan.seed, 1u);
    ASSERT_EQ(plan.rules.size(), 1u);
    EXPECT_EQ(plan.rules[0].site, "*");
    EXPECT_EQ(plan.rules[0].op, "*");
    EXPECT_EQ(plan.rules[0].occ, 1u); // default: first matching call
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(fault::parsePlan(""), std::invalid_argument);
    EXPECT_THROW(fault::parsePlan("site=x"), std::invalid_argument);
    EXPECT_THROW(fault::parsePlan("fault=crash"), std::invalid_argument);
    EXPECT_THROW(fault::parsePlan("site=x:fault=nosuchkind"),
                 std::invalid_argument);
    EXPECT_THROW(fault::parsePlan("site=x:fault=crash:occ=bogus"),
                 std::invalid_argument);
    EXPECT_THROW(fault::parsePlan("site=x:fault=crash:unknown=1"),
                 std::invalid_argument);
    // Kinds and ops no wrapper honours would arm a rule that can never
    // fire, so a torture cycle built on one would pass untested.
    EXPECT_THROW(fault::parsePlan("site=x:fault=hang"),
                 std::invalid_argument);
    EXPECT_THROW(fault::parsePlan("site=x:fault=slow"),
                 std::invalid_argument);
    EXPECT_THROW(fault::parsePlan("site=x:op=point:fault=crash"),
                 std::invalid_argument);
    EXPECT_THROW(fault::parsePlan("site=x:op=wrte:fault=crash"),
                 std::invalid_argument);
    EXPECT_THROW(fault::parsePlan("site=x:op=rename:fault=crash"),
                 std::invalid_argument);
}

// ---------------------------------------------------------- occurrence

TEST(FaultPlan, OccurrenceClockFiresTheNthCallOnce)
{
    Disarmed guard;
    fault::arm(fault::parsePlan("site=s:op=write:occ=3:fault=eio"));
    fault::Decision d;
    EXPECT_FALSE(fault::decide("s", "write", "f", d));
    EXPECT_FALSE(fault::decide("s", "write", "f", d));
    EXPECT_TRUE(fault::decide("s", "write", "f", d));
    EXPECT_EQ(d.kind, fault::Kind::kEio);
    // One-shot: the 4th and later calls pass through.
    EXPECT_FALSE(fault::decide("s", "write", "f", d));
    EXPECT_FALSE(fault::decide("s", "write", "f", d));
}

TEST(FaultPlan, OccurrenceZeroFiresEveryCall)
{
    Disarmed guard;
    fault::arm(fault::parsePlan("site=s:op=write:occ=0:fault=eintr"));
    fault::Decision d;
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(fault::decide("s", "write", "f", d));
}

TEST(FaultPlan, SiteOpAndPathFiltersAreRespected)
{
    Disarmed guard;
    fault::arm(fault::parsePlan(
        "site=s:op=write:occ=1:fault=eio:path=target"));
    fault::Decision d;
    EXPECT_FALSE(fault::decide("other", "write", "target", d));
    EXPECT_FALSE(fault::decide("s", "fsync", "target", d));
    EXPECT_FALSE(fault::decide("s", "write", "elsewhere", d));
    // Non-matching calls must not advance the occurrence clock.
    EXPECT_TRUE(fault::decide("s", "write", "a/target/b", d));
}

TEST(FaultPlan, RearmRestartsTheOccurrenceClock)
{
    Disarmed guard;
    fault::Plan plan =
        fault::parsePlan("site=s:op=write:occ=1:fault=eio");
    fault::arm(plan);
    fault::Decision d;
    EXPECT_TRUE(fault::decide("s", "write", "f", d));
    EXPECT_FALSE(fault::decide("s", "write", "f", d));
    fault::arm(plan);
    EXPECT_TRUE(fault::decide("s", "write", "f", d));
}

TEST(FaultPlan, DisarmRestoresTheFreeSeam)
{
    Disarmed guard;
    EXPECT_FALSE(fault::active());
    fault::arm(fault::parsePlan("site=s:fault=crash"));
    EXPECT_TRUE(fault::active());
    EXPECT_EQ(fault::armedSpec(), "site=s:fault=crash");
    fault::disarm();
    EXPECT_FALSE(fault::active());
    EXPECT_TRUE(fault::armedSpec().empty());
}

TEST(FaultPlan, SeededDrawsAreDeterministic)
{
    Disarmed guard;
    fault::arm(fault::parsePlan("seed=5;site=s:op=write:occ=1:fault=torn"));
    fault::Decision d1;
    ASSERT_TRUE(fault::decide("s", "write", "f", d1));
    fault::arm(fault::parsePlan("seed=5;site=s:op=write:occ=1:fault=torn"));
    fault::Decision d2;
    ASSERT_TRUE(fault::decide("s", "write", "f", d2));
    EXPECT_EQ(d1.draw, d2.draw);

    fault::arm(fault::parsePlan("seed=6;site=s:op=write:occ=1:fault=torn"));
    fault::Decision d3;
    ASSERT_TRUE(fault::decide("s", "write", "f", d3));
    EXPECT_NE(d1.draw, d3.draw); // different seed, different tear
}

// ------------------------------------------------- end-to-end injection

TEST(FaultSeam, EintrOnWriteIsRetriedTransparently)
{
    Disarmed guard;
    TempDir dir("fault_eintr");
    fault::arm(fault::parsePlan(
        "site=chunk.write:op=write:occ=1:fault=eintr"));

    std::string path = dir.file("frames.bin");
    state::ChunkFileWriter w;
    w.create(path, false);
    w.append(1, {1, 2, 3, 4});
    w.close();
    fault::disarm();

    state::ChunkFileScanner scan(path);
    state::ChunkFrame frame;
    ASSERT_TRUE(scan.next(frame));
    EXPECT_EQ(frame.body, (state::Buffer{1, 2, 3, 4}));
}

TEST(FaultSeam, ShortWritesAreContinuedNotLost)
{
    Disarmed guard;
    TempDir dir("fault_short");
    // Every write is short: the writeAll loop must still land every
    // byte by continuing from where the kernel stopped.
    fault::arm(fault::parsePlan(
        "site=chunk.write:op=write:occ=0:fault=short"));

    std::string path = dir.file("frames.bin");
    state::Buffer body(300, 0x5A);
    state::ChunkFileWriter w;
    w.create(path, false);
    w.append(9, body);
    w.close();
    fault::disarm();

    state::ChunkFileScanner scan(path);
    state::ChunkFrame frame;
    ASSERT_TRUE(scan.next(frame));
    EXPECT_EQ(frame.body, body);
}

TEST(FaultSeam, WriteReturningZeroThrowsInsteadOfSpinning)
{
    Disarmed guard;
    TempDir dir("fault_zero");
    fault::arm(fault::parsePlan(
        "site=chunk.write:op=write:occ=1:fault=short:arg=0"));

    state::ChunkFileWriter w;
    w.create(dir.file("frames.bin"), false);
    EXPECT_THROW(w.append(1, {1, 2, 3}), state::ArchiveError);
}

TEST(FaultSeam, EnospcThrowsLoudlyWithPathAndSite)
{
    Disarmed guard;
    TempDir dir("fault_enospc");
    fault::arm(fault::parsePlan(
        "site=chunk.write:op=write:occ=1:fault=enospc"));

    std::string path = dir.file("frames.bin");
    state::ChunkFileWriter w;
    w.create(path, false);
    try {
        w.append(1, {1, 2, 3});
        FAIL() << "append must throw on ENOSPC";
    } catch (const state::ArchiveError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("chunk.write"), std::string::npos) << msg;
    }
}

TEST(FaultSeam, FsyncErrorThrowsAndFsyncDropIsSilent)
{
    Disarmed guard;
    TempDir dir("fault_fsync");
    {
        fault::arm(fault::parsePlan(
            "site=chunk.write:op=fsync:occ=1:fault=eio"));
        state::ChunkFileWriter w;
        w.create(dir.file("a.bin"), /*durable=*/true);
        EXPECT_THROW(w.append(1, {1}), state::ArchiveError);
    }
    {
        // A dropped fsync lies about durability; with no crash after
        // it the bytes still land, so the write path must not fail.
        fault::arm(fault::parsePlan(
            "site=chunk.write:op=fsync:occ=0:fault=fsync-drop"));
        state::ChunkFileWriter w;
        w.create(dir.file("b.bin"), /*durable=*/true);
        w.append(1, {7, 7});
        w.close();
        fault::disarm();
        state::ChunkFileScanner scan(dir.file("b.bin"));
        state::ChunkFrame frame;
        ASSERT_TRUE(scan.next(frame));
        EXPECT_EQ(frame.body, (state::Buffer{7, 7}));
    }
}

TEST(FaultSeam, BitflipCorruptionIsCaughtByTheFrameCrc)
{
    Disarmed guard;
    TempDir dir("fault_bitflip");
    std::string path = dir.file("frames.bin");
    fault::arm(fault::parsePlan(
        "seed=3;site=chunk.write:op=write:occ=1:fault=bitflip"));

    state::ChunkFileWriter w;
    w.create(path, false);
    w.append(1, state::Buffer(64, 0x11)); // flipped in flight
    w.close();
    fault::disarm();

    state::ChunkFileScanner scan(path);
    state::ChunkFrame frame;
    EXPECT_THROW(scan.next(frame), state::ArchiveError);
}

TEST(FaultSeam, DurableColstorePointSurvivesInjectedTornWrite)
{
    // The whole contract in one in-process pass: tear the 3rd append
    // (without the SIGKILL half — arg only truncates what hits disk
    // when the process dies; here we emulate the aftermath by flipping
    // to a plain short+error), then verify the reader recovers the
    // whole-point prefix. The full kill-and-recover version runs in
    // bench/torture_crashpoints; this pins the in-process seam wiring.
    Disarmed guard;
    TempDir dir("fault_colstore");
    std::string path = dir.file("sweep.colstore");

    exp::ScenarioSpec spec;
    spec.name = "fault-grid";
    spec.axes = {exp::axis("x", {1.0, 2.0, 3.0})};
    exp::SweepMeta meta = exp::sweepMeta(spec, /*seed=*/1, /*trials=*/1);

    auto recordFor = [&](std::size_t idx) {
        exp::TrialRecord rec;
        rec.pointIndex = idx;
        rec.trial = 0;
        rec.seed = exp::deriveTrialSeed(meta.baseSeed, idx);
        rec.metrics["m"] = 1.5 * (idx + 1);
        return rec;
    };

    // ENOSPC on the header append: beginSweep must fail loudly, not
    // produce a store that silently lacks its identity.
    fault::arm(fault::parsePlan(
        "site=chunk.write:op=write:occ=1:fault=enospc"));
    {
        exp::ColumnStoreWriter w(path, /*durable=*/true);
        EXPECT_THROW(w.beginSweep(meta), state::ArchiveError);
    }
    fault::disarm();

    // Clean run through an EINTR storm: several writes interrupted
    // (staggered one-shot rules — occ=0 would interrupt every retry
    // too and livelock, which no real kernel does), result
    // byte-identical to a fault-free store.
    fs::remove(path);
    fault::arm(fault::parsePlan(
        "site=chunk.write:op=write:occ=1:fault=eintr;"
        "site=chunk.write:op=write:occ=2:fault=eintr;"
        "site=chunk.write:op=write:occ=4:fault=eintr"));
    {
        exp::ColumnStoreWriter w(path, /*durable=*/true);
        w.beginSweep(meta);
        for (std::size_t idx = 0; idx < meta.numPoints(); ++idx) {
            exp::TrialRecord rec = recordFor(idx);
            w.acceptPoint(idx, &rec, 1);
        }
        w.endSweep();
    }
    fault::disarm();

    exp::ColumnStoreReader r(path);
    EXPECT_TRUE(r.cleanFooter());
    ASSERT_EQ(r.completedPoints(), meta.numPoints());
    for (std::size_t idx = 0; idx < meta.numPoints(); ++idx) {
        auto recs = r.readPoint(idx);
        ASSERT_EQ(recs.size(), 1u);
        EXPECT_EQ(recs[0].seed, recordFor(idx).seed);
        EXPECT_EQ(recs[0].metrics.at("m"), recordFor(idx).metrics["m"]);
    }
}

// ------------------------------------------------------- counting mode

TEST(FaultCounting, DecideRecordsSiteOpCounts)
{
    // Counting mode is wired via ICH_FAULT_COUNT_FILE + armFromEnv()
    // and dumps at process exit, which a unit test can't observe
    // in-process; what it CAN pin is that counting does not fire any
    // fault (the victim must complete its fault-free recording run).
    Disarmed guard;
    TempDir dir("fault_count");
    ::setenv("ICH_FAULT_COUNT_FILE", dir.file("counts").c_str(), 1);
    ::unsetenv("ICH_FAULT_PLAN");
    fault::armFromEnv();
    ::unsetenv("ICH_FAULT_COUNT_FILE");
    EXPECT_TRUE(fault::active());

    fault::Decision d;
    EXPECT_FALSE(fault::decide("s", "write", "f", d));
    EXPECT_FALSE(fault::decide("s", "write", "f", d));
    EXPECT_FALSE(fault::decide("t", "fsync", "f", d));
}

} // namespace
} // namespace ich
