/**
 * @file
 * Sweep-layer benchmarks with a CI gate.
 *
 *  - BENCH_detect (written to `BENCH_detect.json` under `--json --out
 *    DIR`): online-detection overhead. Each trial runs the same
 *    PHI-burst workload unwatched and with a full detect::DetectorBank
 *    riding the chip Ticker, and reports event-kernel events/s for
 *    both plus detect_overhead_ratio = on/off. CI gates the ratio at
 *    0.9: attaching the detectors must never cost the simulator more
 *    than a tenth of its throughput.
 *
 *  - The RSS gate (`--rss-points N [--rss-trials T]`): the memory
 *    ceiling of the streaming result path.
 *
 * Extra flags (on top of the standard sweep CLI):
 *
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
 * The sweep runner is forced to 1 worker: wall-clock metrics must not
 * contend.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
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

exp::ScenarioRegistry
buildScenarios()
{
    exp::ScenarioRegistry reg;
    exp::ScenarioSpec spec;
    spec.name = "BENCH_detect";
    spec.description = "online-detection overhead: event-kernel "
                       "events/s with a full DetectorBank attached "
                       "vs unwatched";
    spec.axes = {exp::axis("bursts", {16.0, 48.0})};
    spec.trials = 2;
    spec.baseSeed = 29;
    spec.run = [](const exp::TrialContext &ctx) {
        int bursts = ctx.point.getInt("bursts");
        // Off first, on second, same seed: identical physics, the
        // only delta is the bank's observation ticks.
        double off =
            detectArmEventsPerSec(false, bursts, ctx.seed, nullptr);
        std::uint64_t det_samples = 0;
        double on =
            detectArmEventsPerSec(true, bursts, ctx.seed, &det_samples);
        exp::MetricMap m;
        m["off_events_per_sec"] = off;
        m["on_events_per_sec"] = on;
        m["detect_overhead_ratio"] = on / off;
        m["det_samples"] = static_cast<double>(det_samples);
        return m;
    };
    reg.add(std::move(spec));
    return reg;
}

// ------------------------------------------------------- RSS gate

/** Process peak RSS in MiB (ru_maxrss is KiB on Linux). */
double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
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
    std::size_t rss_points = 0;
    int rss_trials = 3;
    bool rss_materialize = false;
    std::vector<const char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--rss-points") == 0) {
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

    exp::ScenarioRegistry reg = buildScenarios();
    exp::CliOptions cli;
    int rc = exp::harnessSetup(static_cast<int>(args.size()),
                               args.data(), reg, cli);
    if (rc >= 0)
        return rc;
    // Throughput is wall-clock: keep trials from contending.
    cli.jobs = 1;

    bench::banner("BENCH_detect", "online-detection overhead");
    exp::SweepResult res = exp::runAndReport(*reg.find("BENCH_detect"), cli);
    exp::MetricSummary ratio =
        exp::rollup(res, cli, "detect_overhead_ratio");
    exp::MetricSummary on = exp::rollup(res, cli, "on_events_per_sec");
    std::printf("\nonline detection: %.2fx event throughput with "
                "the bank attached (min %.2fx; 1.0 = free), "
                "%.0f events/s watched\n",
                ratio.mean, ratio.min, on.mean);
    return 0;
}
