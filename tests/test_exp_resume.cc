/**
 * @file
 * Tests for resumable sweeps in the SweepRunner: a sweep resumed from
 * its columnar result store must reproduce an uninterrupted run
 * exactly, a store for a different sweep must be ignored, and a torn
 * store must recover its intact whole-point prefix.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>

#include "chip/presets.hh"
#include "chip/simulation.hh"
#include "exp/exp.hh"

namespace ich
{
namespace
{

namespace fs = std::filesystem;

ChipConfig
scenarioChip(double slew_mv_per_us)
{
    ChipConfig cfg = presets::cannonLake();
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 1.4;
    cfg.pmu.vr.slewVoltsPerSecond = slew_mv_per_us * 1000.0;
    cfg.pmu.vr.commandJitter = fromNanoseconds(50); // exercise the Rng
    return cfg;
}

/** PHI bursts on every core, then a timed probe loop on core 0. */
exp::MetricMap
measuredTrial(const exp::TrialContext &ctx)
{
    Simulation sim(scenarioChip(ctx.point.get("slew_mV_per_us")),
                   ctx.seed);
    for (int c = 0; c < sim.chip().coreCount(); ++c) {
        Program p;
        p.loop(InstClass::k256Heavy, 1200, 100);
        p.idle(fromMicroseconds(30));
        p.loop(InstClass::k512Heavy, 600, 100);
        HwThread &thr = sim.chip().core(c).thread(0);
        thr.setProgram(std::move(p));
        thr.start();
    }
    sim.run(fromSeconds(1.0));

    std::uint64_t iters =
        static_cast<std::uint64_t>(ctx.point.get("probe_iters"));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(1);
    p.loop(InstClass::k256Heavy, iters, 100);
    p.mark(2);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run(fromSeconds(1.0));

    const auto &recs = thr.records();
    exp::MetricMap m;
    m["probe_us"] = toMicroseconds(recs.back().time - recs.front().time);
    m["volts"] = sim.chip().vccVolts();
    m["clk"] = static_cast<double>(thr.counters().clkUnhalted());
    return m;
}

exp::ScenarioSpec
resumeSpec()
{
    exp::ScenarioSpec spec;
    spec.name = "resume-test";
    spec.description = "resume unit scenario";
    spec.axes = {
        exp::axis("slew_mV_per_us", {1.0, 2.5}),
        exp::axis("probe_iters", {400.0, 800.0, 1200.0}),
    };
    spec.trials = 2;
    spec.baseSeed = 99;
    spec.run = measuredTrial;
    return spec;
}

/**
 * Rewrite the store at @p path with only its first @p keep points, as
 * if the run that wrote it had been killed mid-sweep.
 */
void
keepFirstPoints(const std::string &path, const exp::ScenarioSpec &spec,
                std::size_t keep)
{
    std::map<std::size_t, std::vector<exp::TrialRecord>> points;
    {
        exp::ColumnStoreReader r(path);
        r.forEachPoint([&](std::size_t idx,
                           const std::vector<exp::TrialRecord> &recs) {
            if (points.size() < keep)
                points[idx] = recs;
        });
    }
    exp::SweepMeta meta = exp::sweepMeta(spec);
    // A fresh writer would adopt the complete store; start from none.
    fs::remove(path);
    exp::ColumnStoreWriter w(path);
    w.beginSweep(meta);
    for (const auto &kv : points)
        w.acceptPoint(kv.first, kv.second.data(), kv.second.size());
    w.endSweep();
}

std::string
runToJson(const exp::ScenarioSpec &spec, exp::RunnerOptions opts)
{
    exp::SweepResult result = exp::SweepRunner(opts).run(spec);
    return exp::jsonReport(result);
}

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string &name)
        : path(fs::path(::testing::TempDir()) / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

TEST(Resume, CompletedSweepResumesInstantlyAndIdentically)
{
    TempDir dir("resume_complete");
    exp::ScenarioSpec spec = resumeSpec();
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.resumeDir = dir.path.string();

    std::string first = runToJson(spec, opts);

    exp::SweepResult again = exp::SweepRunner(opts).run(spec);
    EXPECT_EQ(again.resumedPoints, again.points.size());
    EXPECT_EQ(exp::jsonReport(again), first);
}

TEST(Resume, InterruptedSweepResumesByteIdentically)
{
    TempDir dir("resume_interrupted");
    exp::ScenarioSpec spec = resumeSpec();
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.resumeDir = dir.path.string();

    std::string uninterrupted = runToJson(spec, opts);

    keepFirstPoints(exp::resultStorePath(dir.path.string(), spec.name),
                    spec, 2);

    exp::SweepResult resumed = exp::SweepRunner(opts).run(spec);
    EXPECT_EQ(resumed.resumedPoints, 2u);
    EXPECT_EQ(exp::jsonReport(resumed), uninterrupted);
}

TEST(Resume, MismatchedManifestRestartsFromScratch)
{
    TempDir dir("resume_mismatch");
    exp::ScenarioSpec spec = resumeSpec();
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.resumeDir = dir.path.string();
    runToJson(spec, opts);

    exp::ScenarioSpec reseeded = spec;
    reseeded.baseSeed = 1234; // different sweep now
    exp::SweepResult result = exp::SweepRunner(opts).run(reseeded);
    EXPECT_EQ(result.resumedPoints, 0u);
}

TEST(Resume, ManifestWritesLeaveNoTempFiles)
{
    TempDir dir("resume_atomic");
    exp::ScenarioSpec spec = resumeSpec();
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.resumeDir = dir.path.string();
    runToJson(spec, opts);

    for (const auto &entry : fs::directory_iterator(dir.path))
        EXPECT_NE(entry.path().extension(), ".tmp")
            << "leftover staging file: " << entry.path();
}

TEST(Resume, TruncatedStoreRecoversItsWholePointPrefix)
{
    TempDir dir("resume_truncated");
    exp::ScenarioSpec spec = resumeSpec();
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.resumeDir = dir.path.string();
    std::string full = runToJson(spec, opts);

    std::string mpath =
        exp::resultStorePath(dir.path.string(), spec.name);
    std::ifstream in(mpath, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(mpath, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
    out.close();

    // A truncated store is a torn tail: the intact whole-point prefix
    // loads (or, cut inside the header, nothing does); both are safe.
    // The sweep must reproduce the full result either way.
    std::size_t intact = 0;
    try {
        exp::ColumnStoreReader r(mpath);
        intact = r.completedPoints();
        EXPECT_LT(intact, spec.axes[0].values.size() *
                              spec.axes[1].values.size());
    } catch (const state::ArchiveError &) {
    }
    exp::SweepResult resumed = exp::SweepRunner(opts).run(spec);
    EXPECT_EQ(resumed.resumedPoints, intact);
    EXPECT_EQ(exp::jsonReport(resumed), full);
}

TEST(Resume, GridFingerprintIsPinned)
{
    // Every store on disk carries its grid's fingerprint, and a store is
    // resumed or re-rendered only when it matches. The value is pinned,
    // so a change to how it is computed cannot orphan existing stores.
    exp::ScenarioSpec spec;
    spec.name = "fingerprint";
    spec.axes = {exp::axis("rate", {0.5, 1e-300, -0.0, 10000.0}),
                 exp::axisLabeledValues("who", {{"a b=c", 1.0}, {"", 2.0}})};
    std::vector<exp::ParamPoint> points = exp::expandPoints(spec);
    ASSERT_EQ(points.size(), 8u);
    EXPECT_EQ(exp::gridFingerprint(points), 0x55f0b98fee4ec449ull);
}

} // namespace
} // namespace ich
