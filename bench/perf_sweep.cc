/**
 * @file
 * End-to-end sweep-throughput benchmarks.
 *
 * Three scenarios (each writes `<name>.json` under `--json --out DIR`):
 *
 *  - BENCH_sweep: one complete src/exp sweep — a thread-channel BER
 *    grid with real Simulation trials — per outer point, on an inner
 *    SweepRunner pinned to N workers; reports points/sec and
 *    trials/sec. The jobs axis shows how the worker pool scales now
 *    that the event kernel, not the allocator, is the bottleneck.
 *
 *  - BENCH_detect: online-detection overhead. Each trial runs the same
 *    PHI-burst workload unwatched and with a full detect::DetectorBank
 *    riding the chip Ticker, and reports event-kernel events/s for
 *    both plus detect_overhead_ratio = on/off. CI gates the ratio at
 *    0.9: attaching the detectors must never cost the simulator more
 *    than a tenth of its throughput.
 *
 *  - BENCH_colstore: the columnar result store. Each trial streams a
 *    synthetic many-point sweep's records through a ColumnStoreWriter
 *    (spill throughput, on-disk size), re-opens the store and reads
 *    every point back (scan + decode throughput), verifies the
 *    read-back is bit-identical to the generated records, and reports
 *    the process peak RSS — the memory ceiling of the streaming path.
 *
 * Extra flags (on top of the standard sweep CLI):
 *
 *   --grid small|large     grid preset; `large` widens the jobs axis
 *                          and the inner grids for scaling studies
 *                          (ROADMAP.md records the measured numbers)
 *   --rss-points N         RSS-gate mode: run one N-point streaming
 *                          sweep (cheap math trials, records spilled to
 *                          the column store) and print the peak RSS,
 *                          then exit.
 *   --rss-trials T         trials per point in the gate sweep
 *                          (default 3). CI holds the grid fixed and
 *                          runs T and 10T — 10x the result records —
 *                          and scripts/check_rss_flat.py asserts the
 *                          streaming ceiling stays flat. (The grid
 *                          itself is input, not results: ParamPoints
 *                          cost ~190 B/point however results are
 *                          handled, so record growth is the axis that
 *                          isolates what the streaming path bounds.)
 *   --rss-materialize      RSS-gate mode, but through the legacy
 *                          materialized SweepResult path — the
 *                          O(total trials) baseline the gate contrasts.
 *
 * Inner workloads scale down via ICH_PERF_SWEEP_TRIALS,
 * ICH_PERF_COLSTORE_POINTS and ICH_PERF_COLSTORE_TRIALS for CI smoke
 * runs. The outer runner is
 * forced to 1 worker: wall-clock metrics must not contend (the inner
 * pool is what is being measured).
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "detect/detector.hh"
#include "exp/exp.hh"

using namespace ich;

namespace
{

struct GridOptions {
    std::vector<double> jobsAxis;
    std::vector<double> noiseAxis;
    std::vector<double> payloadAxis;
    std::vector<double> chunkRecordsAxis; ///< colstore flush thresholds
    std::vector<double> detectBurstsAxis; ///< PHI bursts (detect bench)
};

GridOptions
gridFor(const std::string &name)
{
    GridOptions g;
    if (name == "small") {
        g.jobsAxis = {1.0, 2.0, 4.0};
        g.noiseAxis = {0.0, 1000.0, 5000.0};
        g.payloadAxis = {16.0, 32.0};
        g.chunkRecordsAxis = {4096.0, 65536.0};
        g.detectBurstsAxis = {16.0, 48.0};
    } else if (name == "large") {
        g.jobsAxis = {1.0, 2.0, 4.0, 8.0};
        g.noiseAxis = {0.0, 500.0, 1000.0, 5000.0, 10000.0};
        g.payloadAxis = {16.0, 32.0, 64.0};
        g.chunkRecordsAxis = {1024.0, 4096.0, 16384.0, 65536.0};
        g.detectBurstsAxis = {16.0, 48.0, 96.0};
    } else {
        throw std::invalid_argument("--grid: expected 'small' or "
                                    "'large', got '" + name + "'");
    }
    return g;
}

/** The measured workload: a small but real covert-channel sweep. */
exp::ScenarioSpec
innerSpec(const GridOptions &grid, int trials, std::uint64_t seed)
{
    exp::ScenarioSpec inner;
    inner.name = "inner-ber-grid";
    inner.description = "thread-channel BER vs noise (timing payload)";
    inner.axes = {
        exp::axis("noise_events_per_s", grid.noiseAxis),
        exp::axis("payload_bits", grid.payloadAxis),
    };
    inner.trials = trials;
    inner.baseSeed = seed;
    inner.run = [](const exp::TrialContext &ctx) {
        ChannelConfig cfg;
        cfg.chip = presets::cannonLake();
        cfg.seed = ctx.seed;
        cfg.noise.interruptRatePerSec =
            ctx.point.get("noise_events_per_s");
        auto ch = makeChannel(ChannelKind::kThread, cfg);
        TransmitResult r = ch->transmit(bench::lcgPayload(
            static_cast<std::size_t>(ctx.point.get("payload_bits")),
            0xBEEF));
        exp::MetricMap m;
        m["ber"] = r.ber;
        m["throughput_bps"] = r.throughputBps;
        return m;
    };
    return inner;
}

// ---------------------------------------------------- BENCH_detect

/**
 * One measured run of the detection-overhead workload: PHI burst
 * cycles on every core, optionally watched by a full DetectorBank.
 * Returns event-kernel throughput (executed events per wall second) —
 * the detector ticks *add* events, so comparable on/off throughput
 * means the bank costs what its ticks cost and nothing more.
 */
double
detectArmEventsPerSec(bool with_bank, int bursts, std::uint64_t seed,
                      std::uint64_t *det_samples)
{
    Simulation sim(presets::cannonLake(), seed);
    std::unique_ptr<detect::DetectorBank> bank;
    if (with_bank)
        bank = std::make_unique<detect::DetectorBank>(
            sim.chip(), detect::DetectConfig{});
    for (int c = 0; c < sim.chip().coreCount(); ++c) {
        Program p;
        for (int b = 0; b < bursts; ++b) {
            p.loop(InstClass::k256Heavy, 400, 100);
            p.idle(fromMicroseconds(700)); // hysteresis decay
            p.loop(InstClass::k512Heavy, 200, 100);
            p.idle(fromMicroseconds(700));
        }
        HwThread &thr = sim.chip().core(c).thread(0);
        thr.setProgram(std::move(p));
        thr.start();
    }
    auto t0 = std::chrono::steady_clock::now();
    sim.run(fromSeconds(10.0));
    double dt = bench::secondsSince(t0);
    if (det_samples)
        *det_samples = with_bank ? bank->detector(0).samples() : 0;
    return static_cast<double>(sim.eq().executedEvents()) / dt;
}

// --------------------------------------------------- BENCH_colstore

/** Process peak RSS in MiB (ru_maxrss is KiB on Linux). */
double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Identity of the synthetic store the colstore bench writes: a flat
 * one-axis grid, sized by the env knobs. The records are pure functions
 * of (base seed, global trial index), so the read-back phase can
 * regenerate them and assert bit-identity.
 */
exp::SweepMeta
colstoreMeta(std::size_t n_points, int tpp, std::uint64_t seed)
{
    exp::ScenarioSpec synth;
    synth.name = "colstore-synthetic";
    synth.description = "synthetic records for the column-store bench";
    std::vector<double> idx(n_points);
    for (std::size_t i = 0; i < n_points; ++i)
        idx[i] = static_cast<double>(i);
    synth.axes = {exp::axis("i", idx)};
    synth.trials = tpp;
    synth.baseSeed = seed;

    exp::SweepMeta meta;
    meta.scenario = synth.name;
    meta.description = synth.description;
    meta.baseSeed = seed;
    meta.trialsPerPoint = tpp;
    meta.points = exp::expandPoints(synth);
    meta.gridFp = exp::gridFingerprint(meta.points);
    return meta;
}

exp::TrialRecord
colstoreRecord(const exp::SweepMeta &meta, std::size_t point, int trial)
{
    exp::TrialRecord r;
    r.pointIndex = point;
    r.trial = trial;
    r.seed = exp::deriveTrialSeed(
        meta.baseSeed,
        static_cast<std::uint64_t>(point) * meta.trialsPerPoint + trial);
    Rng rng(r.seed);
    r.metrics["ber"] = rng.uniform();
    r.metrics["throughput_bps"] = rng.normal(1.0e6, 1.0e4);
    return r;
}

exp::ScenarioRegistry
buildScenarios(const GridOptions &grid)
{
    const int inner_trials = static_cast<int>(
        bench::envCount("ICH_PERF_SWEEP_TRIALS", 2));

    exp::ScenarioRegistry reg;
    {
        exp::ScenarioSpec spec;
        spec.name = "BENCH_sweep";
        spec.description = "src/exp sweep throughput (points/sec) vs "
                           "inner worker count";
        spec.axes = {exp::axis("jobs", grid.jobsAxis)};
        spec.trials = 2;
        spec.baseSeed = 7;
        spec.run = [&grid, inner_trials](const exp::TrialContext &ctx) {
            exp::RunnerOptions opts;
            opts.jobs = ctx.point.getInt("jobs");
            exp::SweepRunner runner(opts);
            exp::ScenarioSpec inner =
                innerSpec(grid, inner_trials, ctx.seed);

            auto t0 = std::chrono::steady_clock::now();
            exp::SweepResult r = runner.run(inner);
            double dt = bench::secondsSince(t0);

            exp::MetricMap m;
            m["points_per_sec"] =
                static_cast<double>(r.points.size()) / dt;
            m["trials_per_sec"] =
                static_cast<double>(r.trials.size()) / dt;
            m["sweep_wall_ms"] = dt * 1e3;
            // Sanity tie-in so a broken inner sweep shows in the JSON.
            m["inner_trials"] = static_cast<double>(r.trials.size());
            return m;
        };
        reg.add(std::move(spec));
    }
    {
        exp::ScenarioSpec spec;
        spec.name = "BENCH_detect";
        spec.description = "online-detection overhead: event-kernel "
                           "events/s with a full DetectorBank attached "
                           "vs unwatched";
        spec.axes = {exp::axis("bursts", grid.detectBurstsAxis)};
        spec.trials = 2;
        spec.baseSeed = 29;
        spec.run = [](const exp::TrialContext &ctx) {
            int bursts = ctx.point.getInt("bursts");
            // Off first, on second, same seed: identical physics, the
            // only delta is the bank's observation ticks.
            double off =
                detectArmEventsPerSec(false, bursts, ctx.seed, nullptr);
            std::uint64_t det_samples = 0;
            double on = detectArmEventsPerSec(true, bursts, ctx.seed,
                                              &det_samples);
            exp::MetricMap m;
            m["off_events_per_sec"] = off;
            m["on_events_per_sec"] = on;
            m["detect_overhead_ratio"] = on / off;
            m["det_samples"] = static_cast<double>(det_samples);
            return m;
        };
        reg.add(std::move(spec));
    }
    {
        const std::size_t col_points =
            bench::envCount("ICH_PERF_COLSTORE_POINTS", 20000);
        const int col_tpp = static_cast<int>(
            bench::envCount("ICH_PERF_COLSTORE_TRIALS", 2));

        exp::ScenarioSpec spec;
        spec.name = "BENCH_colstore";
        spec.description = "columnar result store: spill + read-back "
                           "throughput and process peak RSS "
                           "(bit-identity checked)";
        spec.axes = {exp::axis("chunk_records", grid.chunkRecordsAxis)};
        spec.trials = 2;
        spec.baseSeed = 19;
        spec.run = [col_points, col_tpp](const exp::TrialContext &ctx) {
            namespace fs = std::filesystem;
            const fs::path path =
                fs::temp_directory_path() /
                ("ich_bench_colstore." + std::to_string(::getpid()) +
                 ".colstore");
            exp::SweepMeta meta =
                colstoreMeta(col_points, col_tpp, ctx.seed);

            exp::ColumnStoreWriter::Options wopts;
            wopts.chunkRecords = static_cast<std::size_t>(
                ctx.point.getInt("chunk_records"));
            std::vector<exp::TrialRecord> recs;
            auto t0 = std::chrono::steady_clock::now();
            {
                exp::ColumnStoreWriter w(path.string(), wopts);
                w.beginSweep(meta);
                for (std::size_t i = 0; i < col_points; ++i) {
                    recs.clear();
                    for (int t = 0; t < col_tpp; ++t)
                        recs.push_back(colstoreRecord(meta, i, t));
                    w.acceptPoint(i, recs.data(), recs.size());
                }
                w.endSweep();
            }
            double write_dt = bench::secondsSince(t0);
            double spill_mb =
                static_cast<double>(fs::file_size(path)) / 1.0e6;

            t0 = std::chrono::steady_clock::now();
            exp::ColumnStoreReader reader(path.string());
            double scan_dt = bench::secondsSince(t0);
            if (!reader.cleanFooter() || !reader.matches(meta) ||
                reader.completedPoints() != col_points)
                throw std::runtime_error(
                    "column store read-back lost the sweep");

            // The spill is only a win if what comes back is *exactly*
            // what went in.
            std::uint64_t rows = 0;
            t0 = std::chrono::steady_clock::now();
            reader.forEachPoint([&](std::size_t idx,
                                    const std::vector<exp::TrialRecord>
                                        &got) {
                for (std::size_t t = 0; t < got.size(); ++t) {
                    exp::TrialRecord want = colstoreRecord(
                        meta, idx, static_cast<int>(t));
                    if (got[t].seed != want.seed ||
                        got[t].metrics != want.metrics)
                        throw std::runtime_error(
                            "column store read-back diverged at point " +
                            std::to_string(idx));
                }
                rows += got.size();
            });
            double read_dt = bench::secondsSince(t0);
            fs::remove(path);

            double n_points = static_cast<double>(col_points);
            exp::MetricMap m;
            m["write_points_per_sec"] = n_points / write_dt;
            m["spill_mb"] = spill_mb;
            m["spill_mb_per_sec"] = spill_mb / write_dt;
            m["scan_points_per_sec"] = n_points / scan_dt;
            m["read_records_per_sec"] =
                static_cast<double>(rows) / read_dt;
            m["peak_rss_mb"] = peakRssMb();
            return m;
        };
        reg.add(std::move(spec));
    }
    return reg;
}

/**
 * RSS-gate mode (`--rss-points N [--rss-trials T]`): one synthetic
 * N-point streaming sweep with cheap math trials, records spilled
 * straight to the column store. CI runs the binary twice with the grid
 * held fixed and the trial count 10x'd — 10x the result records — and
 * scripts/check_rss_flat.py asserts the peak RSS ceiling stays flat:
 * the property the whole streaming redesign exists for. A second CI
 * check contrasts `--rss-materialize` (the legacy O(total trials)
 * SweepResult path) at the same size, which must NOT be flat.
 */
int
runRssGate(std::size_t n_points, int trials, bool materialize)
{
    namespace fs = std::filesystem;
    exp::ScenarioSpec spec;
    spec.name = "rss-gate";
    spec.description = "synthetic flat-memory gate workload";
    std::vector<double> idx(n_points);
    for (std::size_t i = 0; i < n_points; ++i)
        idx[i] = static_cast<double>(i);
    spec.axes = {exp::axis("i", idx)};
    spec.trials = trials;
    spec.baseSeed = 23;
    spec.run = [](const exp::TrialContext &ctx) {
        Rng rng(ctx.seed);
        exp::MetricMap m;
        m["a"] = rng.normal(0.0, 1.0);
        m["b"] = rng.normal(10.0, 2.0);
        return m;
    };

    exp::RunnerOptions opts;
    opts.jobs = 2;
    exp::SweepRunner runner(opts);
    std::size_t total_trials = 0;
    const fs::path path =
        fs::temp_directory_path() /
        ("ich_rss_gate." + std::to_string(::getpid()) + ".colstore");
    if (materialize) {
        exp::SweepResult res = runner.run(spec);
        total_trials = res.trials.size();
    } else {
        exp::ColumnStoreWriter sink(path.string());
        exp::StreamStats stats = runner.runStreaming(spec, sink);
        total_trials = stats.points *
                       static_cast<std::size_t>(spec.trials);
    }
    std::printf("rss-gate: mode=%s points=%zu trials=%zu "
                "peak_rss_mb=%.1f\n",
                materialize ? "materialize" : "stream", n_points,
                total_trials, peakRssMb());
    fs::remove(path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the bench-specific flags before the standard CLI.
    std::string grid_name = "small";
    std::size_t rss_points = 0;
    int rss_trials = 3;
    bool rss_materialize = false;
    std::vector<const char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--grid") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: --grid: missing value "
                                     "(small|large)\n");
                return 2;
            }
            grid_name = argv[++i];
        } else if (std::strcmp(argv[i], "--rss-points") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "error: --rss-points: missing count\n");
                return 2;
            }
            rss_points = std::strtoull(argv[++i], nullptr, 10);
            if (rss_points == 0) {
                std::fprintf(stderr, "error: --rss-points: expected a "
                                     "positive point count\n");
                return 2;
            }
        } else if (std::strcmp(argv[i], "--rss-trials") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "error: --rss-trials: missing count\n");
                return 2;
            }
            rss_trials = std::atoi(argv[++i]);
            if (rss_trials < 1) {
                std::fprintf(stderr, "error: --rss-trials: expected a "
                                     "positive trial count\n");
                return 2;
            }
        } else if (std::strcmp(argv[i], "--rss-materialize") == 0) {
            rss_materialize = true;
        } else {
            args.push_back(argv[i]);
        }
    }
    if (rss_points > 0)
        return runRssGate(rss_points, rss_trials, rss_materialize);
    if (rss_materialize) {
        std::fprintf(stderr,
                     "error: --rss-materialize requires --rss-points\n");
        return 2;
    }
    GridOptions grid;
    try {
        grid = gridFor(grid_name);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    exp::ScenarioRegistry reg = buildScenarios(grid);
    exp::CliOptions cli;
    int rc = exp::harnessSetup(static_cast<int>(args.size()),
                               args.data(), reg, cli);
    if (rc >= 0)
        return rc;
    // The inner pool is the subject of measurement; keep the outer serial.
    cli.jobs = 1;

    bench::banner("BENCH_sweep", "end-to-end src/exp sweep throughput (" +
                                     grid_name + " grid)");
    if (exp::wantScenario(cli, "BENCH_sweep")) {
        exp::SweepResult res =
            exp::runAndReport(*reg.find("BENCH_sweep"), cli);
        exp::MetricSummary pps = exp::rollup(res, "points_per_sec");
        std::printf("\nsweep throughput: mean %.2f points/s across jobs "
                    "settings (max %.2f)\n\n",
                    pps.mean, pps.max);
    }
    if (exp::wantScenario(cli, "BENCH_detect")) {
        exp::SweepResult res =
            exp::runAndReport(*reg.find("BENCH_detect"), cli);
        exp::MetricSummary ratio =
            exp::rollup(res, "detect_overhead_ratio");
        exp::MetricSummary on = exp::rollup(res, "on_events_per_sec");
        std::printf("\nonline detection: %.2fx event throughput with "
                    "the bank attached (min %.2fx; 1.0 = free), "
                    "%.0f events/s watched\n",
                    ratio.mean, ratio.min, on.mean);
    }
    if (exp::wantScenario(cli, "BENCH_colstore")) {
        exp::SweepResult res =
            exp::runAndReport(*reg.find("BENCH_colstore"), cli);
        exp::MetricSummary wr =
            exp::rollup(res, "write_points_per_sec");
        exp::MetricSummary rd =
            exp::rollup(res, "read_records_per_sec");
        exp::MetricSummary rss = exp::rollup(res, "peak_rss_mb");
        std::printf("\ncolumn store: %.0f points/s spilled (max %.0f), "
                    "%.0f records/s read back, peak RSS %.1f MiB\n",
                    wr.mean, wr.max, rd.mean, rss.max);
    }
    return 0;
}
