/**
 * @file
 * Tests for warm-state forking and resumable sweeps in the SweepRunner:
 * a sweep forked from warm snapshots must be byte-identical to the same
 * sweep run cold; --jobs must stay result-invariant with warmups; and a
 * sweep resumed from its columnar result store must reproduce an
 * uninterrupted run exactly, with a torn store recovering its intact
 * whole-point prefix.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "chip/presets.hh"
#include "chip/simulation.hh"
#include "exp/exp.hh"
#include "state/state.hh"

namespace ich
{
namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kWarmSeed = 0xD1CEu;

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

/** The expensive part: PHI bursts, then settle the PDN. */
std::unique_ptr<Simulation>
warmSimulation(double slew_mv_per_us)
{
    auto sim =
        std::make_unique<Simulation>(scenarioChip(slew_mv_per_us),
                                     kWarmSeed);
    for (int c = 0; c < sim->chip().coreCount(); ++c) {
        Program p;
        p.loop(InstClass::k256Heavy, 1200, 100);
        p.idle(fromMicroseconds(30));
        p.loop(InstClass::k512Heavy, 600, 100);
        HwThread &thr = sim->chip().core(c).thread(0);
        thr.setProgram(std::move(p));
        thr.start();
    }
    sim->run(fromSeconds(1.0));
    state::quiesce(*sim);
    return sim;
}

/** The measured part: seeded per trial, forked or cold-rebuilt. */
exp::MetricMap
measuredTrial(const exp::TrialContext &ctx)
{
    double slew = ctx.point.get("slew_mV_per_us");
    std::unique_ptr<Simulation> sim =
        ctx.warmSnapshot ? state::restore(*ctx.warmSnapshot)
                         : warmSimulation(slew);
    sim->rng().seed(ctx.seed);

    std::uint64_t iters =
        static_cast<std::uint64_t>(ctx.point.get("probe_iters"));
    HwThread &thr = sim->chip().core(0).thread(0);
    Program p;
    p.mark(1);
    p.loop(InstClass::k256Heavy, iters, 100);
    p.mark(2);
    thr.setProgram(std::move(p));
    thr.start();
    sim->run(fromSeconds(1.0));

    const auto &recs = thr.records();
    exp::MetricMap m;
    m["probe_us"] = toMicroseconds(recs.back().time - recs.front().time);
    m["volts"] = sim->chip().vccVolts();
    m["clk"] = static_cast<double>(thr.counters().clkUnhalted());
    return m;
}

/** Two-axis spec; warm state depends only on the slew axis. */
exp::ScenarioSpec
warmForkSpec(bool with_warmup)
{
    exp::ScenarioSpec spec;
    spec.name = "resume-test";
    spec.description = "warm-fork/resume unit scenario";
    spec.axes = {
        exp::axis("slew_mV_per_us", {1.0, 2.5}),
        exp::axis("probe_iters", {400.0, 800.0, 1200.0}),
    };
    spec.trials = 2;
    spec.baseSeed = 99;
    spec.run = measuredTrial;
    if (with_warmup) {
        spec.warmup = [](const exp::ParamPoint &pt) {
            auto sim = warmSimulation(pt.get("slew_mV_per_us"));
            return state::snapshot(*sim);
        };
        spec.warmupKey = [](const exp::ParamPoint &pt) {
            return pt.label("slew_mV_per_us");
        };
    }
    return spec;
}

std::string
runToJson(const exp::ScenarioSpec &spec, exp::RunnerOptions opts)
{
    exp::SweepResult result = exp::SweepRunner(opts).run(spec);
    return exp::jsonReport(result, /*include_trials=*/true);
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

TEST(WarmFork, ForkedSweepIsByteIdenticalToColdSweep)
{
    exp::RunnerOptions opts;
    opts.jobs = 1;
    std::string cold = runToJson(warmForkSpec(false), opts);
    std::string warm = runToJson(warmForkSpec(true), opts);
    EXPECT_EQ(cold, warm);
}

TEST(WarmFork, JobsInvarianceHoldsWithWarmups)
{
    exp::ScenarioSpec spec = warmForkSpec(true);
    exp::RunnerOptions j1;
    j1.jobs = 1;
    exp::RunnerOptions j4;
    j4.jobs = 4;
    EXPECT_EQ(runToJson(spec, j1), runToJson(spec, j4));
}

TEST(Resume, CompletedSweepResumesInstantlyAndIdentically)
{
    TempDir dir("resume_complete");
    exp::ScenarioSpec spec = warmForkSpec(true);
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.resumeDir = dir.path.string();

    std::string first = runToJson(spec, opts);

    exp::SweepResult again = exp::SweepRunner(opts).run(spec);
    EXPECT_EQ(again.resumedPoints, again.points.size());
    EXPECT_EQ(exp::jsonReport(again, true), first);
}

TEST(Resume, InterruptedSweepResumesByteIdentically)
{
    TempDir dir("resume_interrupted");
    exp::ScenarioSpec spec = warmForkSpec(true);
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.resumeDir = dir.path.string();

    std::string uninterrupted = runToJson(spec, opts);

    // Simulate the interruption: keep only the first two completed
    // points in the store, as if the run was killed mid-sweep.
    std::string mpath =
        exp::resultStorePath(dir.path.string(), spec.name);
    exp::ResumeManifest m;
    ASSERT_TRUE(exp::loadManifest(mpath, m));
    while (m.points.size() > 2)
        m.points.erase(std::prev(m.points.end()));
    exp::writeManifest(mpath, m);

    exp::SweepResult resumed = exp::SweepRunner(opts).run(spec);
    EXPECT_EQ(resumed.resumedPoints, 2u);
    EXPECT_EQ(exp::jsonReport(resumed, true), uninterrupted);
}

TEST(Resume, WarmSnapshotCacheIsReusedOnlyWithAMatchingManifest)
{
    TempDir dir("resume_warmcache");
    exp::ScenarioSpec spec = warmForkSpec(true);
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.resumeDir = dir.path.string();

    std::string first = runToJson(spec, opts);
    std::vector<fs::path> snaps;
    for (const auto &entry : fs::directory_iterator(dir.path))
        if (entry.path().extension() == ".snap")
            snaps.push_back(entry.path());
    EXPECT_EQ(snaps.size(), 2u); // one per unique slew value
    auto mtimes = [&snaps]() {
        std::vector<fs::file_time_type> t;
        for (const auto &p : snaps)
            t.push_back(fs::last_write_time(p));
        return t;
    };

    // Interrupted restart (store present and matching): the cached
    // snapshots are trusted — reused in place, not rewritten.
    std::string mpath =
        exp::resultStorePath(dir.path.string(), spec.name);
    exp::ResumeManifest m;
    ASSERT_TRUE(exp::loadManifest(mpath, m));
    m.points.erase(m.points.begin());
    exp::writeManifest(mpath, m);
    auto before = mtimes();
    EXPECT_EQ(runToJson(spec, opts), first);
    EXPECT_EQ(mtimes(), before);

    // Without a store vouching for the directory, the cache could
    // have been produced by a different warmup: it must be recomputed
    // (rewritten), and the results still match a fresh run.
    fs::remove(mpath);
    EXPECT_EQ(runToJson(spec, opts), first);
    EXPECT_NE(mtimes(), before);
}

TEST(Resume, MismatchedManifestRestartsFromScratch)
{
    TempDir dir("resume_mismatch");
    exp::ScenarioSpec spec = warmForkSpec(true);
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
    exp::ScenarioSpec spec = warmForkSpec(true);
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
    exp::ScenarioSpec spec = warmForkSpec(true);
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

    exp::ResumeManifest m;
    bool loaded = exp::loadManifest(mpath, m);
    // A truncated store is a torn tail: the intact whole-point prefix
    // loads (or, cut inside the header, nothing does); both are safe.
    // The sweep must reproduce the full result either way.
    if (loaded) {
        EXPECT_LT(m.points.size(), spec.axes[0].values.size() *
                                       spec.axes[1].values.size());
    }
    exp::SweepResult resumed = exp::SweepRunner(opts).run(spec);
    EXPECT_EQ(resumed.resumedPoints, loaded ? m.points.size() : 0u);
    EXPECT_EQ(exp::jsonReport(resumed, true), full);
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

TEST(Resume, ManifestRoundTripsBitExactMetrics)
{
    exp::ResumeManifest m;
    m.scenario = "bits";
    m.baseSeed = 3;
    m.trialsPerPoint = 1;
    m.numPoints = 1;
    m.gridFp = 0xABCDu;
    exp::TrialRecord rec;
    rec.pointIndex = 0;
    rec.trial = 0;
    rec.seed = 77;
    rec.metrics["x"] = 0.1 + 0.2;
    rec.metrics["y"] = -0.0;
    rec.metrics["z"] = 3.0e-310; // subnormal
    m.points[0] = {rec};

    std::string path =
        (fs::path(::testing::TempDir()) / "bits.colstore").string();
    exp::writeManifest(path, m);
    exp::ResumeManifest back;
    ASSERT_TRUE(exp::loadManifest(path, back));
    ASSERT_TRUE(back.matches(m));
    const auto &metrics = back.points.at(0).at(0).metrics;
    EXPECT_EQ(metrics.at("x"), 0.1 + 0.2);
    EXPECT_EQ(metrics.at("y"), 0.0);
    EXPECT_TRUE(std::signbit(metrics.at("y")));
    EXPECT_EQ(metrics.at("z"), 3.0e-310);
    std::remove(path.c_str());
}

} // namespace
} // namespace ich
