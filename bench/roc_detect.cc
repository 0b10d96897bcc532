/**
 * @file
 * Detector-vs-attacker ROC campaigns on the server preset — the arms
 * race ROADMAP item 4 asked for, as two declarative sweeps:
 *
 *  - roc-detect: N-tenant co-residency grid with the attacker present
 *    or absent at each (honest-rate, tenant-count) point. Every trial
 *    reports each detector's threshold-free peak score; the epilogue
 *    thresholds those scores post-hoc into per-detector ROC curves
 *    (TPR/FPR monotone in the threshold by construction, since one
 *    simulated trial serves every operating point) and their AUC.
 *
 *  - roc-frontier: the adaptive attacker. For a sweep of detector
 *    score budgets, bisect the duty cycle to the fastest channel that
 *    stays under the budget — the capacity-vs-detectability frontier.
 *
 * Harness flags (before the standard exp/ CLI):
 *
 *   --quick   CI-sized grids (fewer axis values, shorter payloads)
 *
 * Post-hoc re-rendering: run once with --stream (or --resume), then
 * re-render reports *and* the ROC epilogue from the column store with
 * `roc_detect --render-from DIR roc-detect` — no re-simulation; the
 * epilogue reads per-trial scores back through exp::forEachTrial().
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "detect/tenant.hh"
#include "exp/exp.hh"

using namespace ich;

namespace
{

struct RocOptions {
    bool quick = false;
    int payloadBits() const { return quick ? 32 : 64; }
    int trials() const { return quick ? 2 : 3; }
    std::vector<double> honestRates() const
    {
        return quick ? std::vector<double>{2000.0}
                     : std::vector<double>{500.0, 2000.0, 8000.0};
    }
    std::vector<double> tenantCounts() const
    {
        return quick ? std::vector<double>{4.0}
                     : std::vector<double>{2.0, 6.0};
    }
    std::vector<double> budgets() const
    {
        return quick ? std::vector<double>{0.15}
                     : std::vector<double>{0.05, 0.10, 0.15, 0.20};
    }
    int frontierIters() const { return quick ? 3 : 5; }
};

detect::TenantConfig
tenantConfigFor(const exp::TrialContext &ctx, const RocOptions &opts)
{
    detect::TenantConfig cfg;
    cfg.seed = ctx.seed;
    cfg.payloadBits = opts.payloadBits();
    cfg.honestTenants = ctx.point.getInt("tenants");
    cfg.honestPhiRatePerSec = ctx.point.get("honest_rate");
    return cfg;
}

exp::ScenarioRegistry
buildScenarios(const RocOptions &opts)
{
    exp::ScenarioRegistry reg;

    exp::ScenarioSpec roc;
    roc.name = "roc-detect";
    roc.description =
        "detector scores: attacker-present vs honest co-residency";
    roc.axes = {
        exp::axisLabeledValues("attacker",
                               {{"honest", 0.0}, {"attacker", 1.0}}),
        exp::axis("honest_rate", opts.honestRates()),
        exp::axis("tenants", opts.tenantCounts()),
    };
    roc.trials = opts.trials();
    roc.baseSeed = 42;
    roc.run = [opts](const exp::TrialContext &ctx) {
        detect::TenantConfig cfg = tenantConfigFor(ctx, opts);
        cfg.attackerPresent = ctx.point.getInt("attacker") == 1;
        return detect::runTenantTrial(cfg).metrics;
    };
    reg.add(std::move(roc));

    exp::ScenarioSpec frontier;
    frontier.name = "roc-frontier";
    frontier.description =
        "adaptive attacker: capacity vs sketch-score budget";
    frontier.axes = {exp::axis("budget", opts.budgets())};
    frontier.trials = 1;
    frontier.baseSeed = 43;
    frontier.run = [opts](const exp::TrialContext &ctx) {
        detect::TenantConfig base;
        base.seed = ctx.seed;
        base.payloadBits = opts.payloadBits();
        detect::FrontierPoint p = detect::adaptiveDutySearch(
            base, "sketch", ctx.point.get("budget"),
            opts.frontierIters());
        exp::MetricMap m;
        m["duty"] = p.duty;
        m["score"] = p.score;
        m["throughput_bps"] = p.throughputBps;
        m["ber"] = p.ber;
        m["feasible"] = p.feasible ? 1.0 : 0.0;
        return m;
    };
    reg.add(std::move(frontier));

    return reg;
}

/** One trial's peak score with its ground-truth label. */
struct ScoreSample {
    double score;
    bool attacker;
};

/**
 * Per-trial scores for @p metric, labeled by the point's attacker
 * axis. exp::forEachTrial() reads them on every result path, so the
 * ROC epilogue never needs a re-simulation once a store exists.
 */
std::vector<ScoreSample>
collectScores(const exp::SweepResult &res, const exp::CliOptions &cli,
              const std::string &metric)
{
    std::vector<ScoreSample> out;
    exp::forEachTrial(res, cli, [&](const exp::TrialRecord &rec) {
        auto it = rec.metrics.find(metric);
        if (it == rec.metrics.end())
            return;
        bool attacker =
            res.points.at(rec.pointIndex).getInt("attacker") == 1;
        out.push_back({it->second, attacker});
    });
    return out;
}

/** One ROC operating point. */
struct RocPoint {
    double threshold;
    double tpr;
    double fpr;
};

/**
 * Threshold the peak scores post-hoc: one ROC point per distinct
 * score, descending — TPR and FPR are non-decreasing along the curve
 * by construction.
 */
std::vector<RocPoint>
rocCurve(const std::vector<ScoreSample> &samples)
{
    std::vector<double> thresholds;
    for (const auto &s : samples)
        thresholds.push_back(s.score);
    std::sort(thresholds.begin(), thresholds.end(),
              std::greater<double>());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());

    double n_pos = 0, n_neg = 0;
    for (const auto &s : samples)
        (s.attacker ? n_pos : n_neg) += 1.0;

    std::vector<RocPoint> curve;
    for (double t : thresholds) {
        double tp = 0, fp = 0;
        for (const auto &s : samples) {
            if (s.score >= t)
                (s.attacker ? tp : fp) += 1.0;
        }
        curve.push_back({t, n_pos > 0 ? tp / n_pos : 0.0,
                         n_neg > 0 ? fp / n_neg : 0.0});
    }
    return curve;
}

/** Mann-Whitney AUC: P(attacker score > honest score) + ties/2. */
double
auc(const std::vector<ScoreSample> &samples)
{
    double wins = 0, pairs = 0;
    for (const auto &a : samples) {
        if (!a.attacker)
            continue;
        for (const auto &b : samples) {
            if (b.attacker)
                continue;
            pairs += 1.0;
            if (a.score > b.score)
                wins += 1.0;
            else if (a.score == b.score)
                wins += 0.5;
        }
    }
    return pairs > 0 ? wins / pairs : 0.0;
}

/** Render the per-detector ROC epilogue; returns the best AUC. */
double
rocEpilogue(const exp::SweepResult &res, const exp::CliOptions &cli)
{
    const char *detectors[] = {"sketch", "cusum", "duty"};
    double best = 0.0;
    std::printf("ROC (thresholding det_*_score post-hoc; one sim per "
                "trial serves every threshold):\n");
    for (const char *d : detectors) {
        std::vector<ScoreSample> samples =
            collectScores(res, cli, std::string("det_") + d + "_score");
        if (samples.empty())
            continue;
        std::vector<RocPoint> curve = rocCurve(samples);
        bool monotone = true;
        for (std::size_t i = 1; i < curve.size(); ++i)
            if (curve[i].tpr < curve[i - 1].tpr ||
                curve[i].fpr < curve[i - 1].fpr)
                monotone = false;
        double a = auc(samples);
        best = std::max(best, a);
        std::printf("  %-6s AUC %.3f  monotone %s  curve:", d, a,
                    monotone ? "yes" : "NO");
        // Print up to 6 operating points spread over the curve.
        std::size_t step = std::max<std::size_t>(1, curve.size() / 6);
        for (std::size_t i = 0; i < curve.size(); i += step)
            std::printf(" (t=%.3g tpr=%.2f fpr=%.2f)", curve[i].threshold,
                        curve[i].tpr, curve[i].fpr);
        std::printf("\n");
        if (!monotone) {
            std::fprintf(stderr,
                         "error: %s ROC is not monotone in the "
                         "threshold\n",
                         d);
            std::exit(1);
        }
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the bench-specific flags before the standard CLI.
    RocOptions opts;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--quick") == 0)
            opts.quick = true;
        else
            args.push_back(argv[i]);
    }

    exp::ScenarioRegistry reg = buildScenarios(opts);
    exp::CliOptions cli;
    int rc = exp::harnessSetup(static_cast<int>(args.size()),
                               args.data(), reg, cli);
    if (rc >= 0)
        return rc;

    bench::banner("ROC campaigns",
                  "online detection vs the IChannels attacker");

    if (exp::wantScenario(cli, "roc-detect")) {
        exp::SweepResult res =
            exp::runAndReport(*reg.find("roc-detect"), cli);
        double best = rocEpilogue(res, cli);
        std::printf("best detector AUC: %.3f\n\n", best);
        if (best < 0.55) {
            std::fprintf(stderr,
                         "error: no detector separates attacker-present "
                         "from honest noise (best AUC %.3f)\n",
                         best);
            return 1;
        }
    }

    if (exp::wantScenario(cli, "roc-frontier")) {
        exp::SweepResult res =
            exp::runAndReport(*reg.find("roc-frontier"), cli);
        std::printf("capacity-vs-detectability frontier (sketch "
                    "budget -> fastest sub-threshold channel):\n");
        for (const auto &pa : res.aggregates) {
            std::printf("  budget %.2f: duty %.3f  %.0f bps  ber %.3f  "
                        "score %.3f  %s\n",
                        pa.point.get("budget"),
                        pa.metrics.at("duty").mean,
                        pa.metrics.at("throughput_bps").mean,
                        pa.metrics.at("ber").mean,
                        pa.metrics.at("score").mean,
                        pa.metrics.at("feasible").mean > 0.0
                            ? "feasible"
                            : "INFEASIBLE");
        }
        std::printf("\n");
    }
    return 0;
}
