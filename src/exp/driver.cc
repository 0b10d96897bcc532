#include "exp/driver.hh"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "exp/colstore.hh"
#include "exp/resume.hh"
#include "exp/runner.hh"
#include "fault/fault.hh"

namespace ich
{
namespace exp
{

namespace
{

/** Captures the SweepMeta published by beginSweep() (stream mode needs
 *  it for the store-backed report view and the returned result). */
class MetaCaptureSink final : public ResultSink
{
  public:
    void beginSweep(const SweepMeta &meta) override { meta_ = meta; }
    void acceptPoint(std::size_t, const TrialRecord *,
                     std::size_t) override
    {
    }
    void endSweep() override {}
    const SweepMeta &meta() const { return meta_; }

  private:
    SweepMeta meta_;
};

} // namespace

int
harnessSetup(int argc, const char *const *argv,
             const ScenarioRegistry &registry, CliOptions &cli)
{
    std::string prog = argc > 0 ? argv[0] : "harness";
    try {
        // Every harness can be a fault-injection victim: plans (and
        // the torture harness's crash-point counting mode) arrive via
        // ICH_FAULT_PLAN / ICH_FAULT_COUNT_FILE. No-op when unset.
        fault::armFromEnv();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: ICH_FAULT_PLAN: %s\n", e.what());
        return 2;
    }
    try {
        cli = parseCli(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n%s", e.what(),
                     cliUsage(prog).c_str());
        return 2;
    }
    if (cli.help) {
        std::printf("%s", cliUsage(prog).c_str());
        return 0;
    }
    if (cli.list) {
        for (const auto &spec : registry.scenarios())
            std::printf("%-24s %s\n", spec.name.c_str(),
                        spec.description.c_str());
        return 0;
    }
    for (const auto &name : cli.scenarios) {
        if (!registry.find(name)) {
            std::fprintf(stderr,
                         "error: unknown scenario '%s' (try --list)\n",
                         name.c_str());
            return 2;
        }
    }
    return -1;
}

namespace
{

/** Shared report tail: header line, resume note, text table, files. */
template <typename Sweep>
void
printAndWrite(const Sweep &sweep, const CliOptions &cli,
              const std::string &scenario,
              const std::string &description, std::size_t resumed,
              std::size_t num_points)
{
    std::printf("%s: %s\n", scenario.c_str(), description.c_str());
    if (resumed > 0)
        std::printf("(resumed: %zu of %zu points restored from the "
                    "result store)\n",
                    resumed, num_points);
    std::printf("%s", textReport(sweep).c_str());
    if (cli.json || cli.csv) {
        // Report-file failures are fatal for a CLI harness, but must
        // surface as a clean message, not an uncaught-exception abort.
        try {
            ReportOptions ropts;
            ropts.json = cli.json;
            ropts.csv = cli.csv;
            ReportPaths paths = writeReports(sweep, cli.outDir, ropts);
            if (!paths.json.empty())
                std::printf("wrote %s\n", paths.json.c_str());
            if (!paths.csv.empty())
                std::printf("wrote %s\n", paths.csv.c_str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            std::exit(1);
        }
    }
    std::printf("\n");
}

/** A streamed sweep's result: header, points and aggregates, no
 *  trials (those stay in the column store; see forEachTrial()). */
SweepResult
resultOf(const SweepMeta &meta, const StreamingAggregator &agg)
{
    SweepResult result;
    result.scenario = meta.scenario;
    result.description = meta.description;
    result.baseSeed = meta.baseSeed;
    result.trialsPerPoint = meta.trialsPerPoint;
    result.points = meta.points;
    result.aggregates = agg.aggregates();
    return result;
}

/**
 * --render-from: rebuild the sweep's identity from the registry spec,
 * read the completed points out of the prior run's column store, and
 * render exactly what the live run rendered — no simulation. The
 * returned SweepResult carries the replayed aggregates, and
 * forEachTrial() reads the trials from the same store, so harness
 * epilogues (figure commentary, ROC post-processing) work unchanged.
 */
SweepResult
renderFromStore(const ScenarioSpec &spec, const CliOptions &cli)
{
    SweepResult result;
    try {
        const SweepMeta meta = sweepMeta(spec, cli.seed, cli.trials);
        const std::string store_path =
            resultStorePath(cli.renderFrom, spec.name);
        ColumnStoreReader reader(store_path);
        if (!reader.matches(meta))
            throw std::runtime_error(
                store_path + ": store identity does not match scenario '" +
                spec.name + "' (grid/seed/trials changed since the run)");
        if (reader.completedPoints() != meta.numPoints())
            throw std::runtime_error(
                store_path + ": incomplete sweep (" +
                std::to_string(reader.completedPoints()) + " of " +
                std::to_string(meta.numPoints()) + " points)");

        StreamingAggregator agg;
        agg.beginSweep(meta);
        reader.forEachPoint(
            [&](std::size_t idx, const std::vector<TrialRecord> &recs) {
                agg.acceptPoint(idx, recs.data(), recs.size());
            });
        agg.endSweep();

        result = resultOf(meta, agg);

        StoreSweepView view{meta, agg, reader};
        printAndWrite(view, cli, meta.scenario, meta.description, 0,
                      meta.numPoints());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }
    return result;
}

SweepResult
runAndReportStreaming(const ScenarioSpec &spec, const CliOptions &cli)
{
    MetaCaptureSink metacap;
    StreamingAggregator agg;
    std::unique_ptr<ColumnStoreWriter> spill;
    std::vector<ResultSink *> sinks{&metacap, &agg};
    const std::string store_path =
        resultStorePath(cli.outDir, spec.name);
    if (!cli.resume) {
        // With --resume the runner already checkpoints
        // every point into this exact path; without it, the driver
        // spills in batch mode so the report view has a store to read.
        // That spill starts fresh: beginSweep() would adopt a matching
        // store an earlier run left here and append a second copy of
        // every point.
        std::remove(store_path.c_str());
        spill = std::make_unique<ColumnStoreWriter>(store_path);
        sinks.push_back(spill.get());
    }
    TeeSink tee(std::move(sinks));

    StreamStats stats;
    try {
        SweepRunner runner(toRunnerOptions(cli));
        stats = runner.runStreaming(spec, tee);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }

    const SweepMeta &meta = metacap.meta();
    SweepResult result = resultOf(meta, agg);
    result.jobs = stats.jobs;
    result.wallSeconds = stats.wallSeconds;
    result.resumedPoints = stats.resumedPoints;

    try {
        ColumnStoreReader reader(store_path);
        StoreSweepView view{meta, agg, reader};
        printAndWrite(view, cli, meta.scenario, meta.description,
                      stats.resumedPoints, meta.numPoints());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }
    return result;
}

} // namespace

SweepResult
runAndReport(const ScenarioSpec &spec, const CliOptions &cli)
{
    if (!cli.renderFrom.empty())
        return renderFromStore(spec, cli);
    if (cli.stream)
        return runAndReportStreaming(spec, cli);

    SweepResult result;
    try {
        SweepRunner runner(toRunnerOptions(cli));
        result = runner.run(spec);
    } catch (const std::exception &e) {
        // A failing trial is fatal for a CLI harness, but must surface
        // as a clean message, not an uncaught-exception abort.
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }

    printAndWrite(result, cli, result.scenario, result.description,
                  result.resumedPoints, result.points.size());
    return result;
}

void
forEachTrial(const SweepResult &result, const CliOptions &cli,
             const std::function<void(const TrialRecord &)> &fn)
{
    if (cli.renderFrom.empty() && !cli.stream) {
        for (const auto &t : result.trials)
            fn(t);
        return;
    }
    // --stream and --render-from leave the trials in the run's column
    // store: the one the sweep spilled into, or the one it re-rendered.
    const std::string &dir =
        cli.renderFrom.empty() ? cli.outDir : cli.renderFrom;
    try {
        ColumnStoreReader reader(resultStorePath(dir, result.scenario));
        reader.forEachPoint(
            [&fn](std::size_t, const std::vector<TrialRecord> &recs) {
                for (const auto &t : recs)
                    fn(t);
            });
    } catch (const state::ArchiveError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }
}

MetricSummary
rollup(const SweepResult &result, const CliOptions &cli,
       const std::string &metric)
{
    std::vector<double> all;
    forEachTrial(result, cli, [&](const TrialRecord &t) {
        auto it = t.metrics.find(metric);
        if (it != t.metrics.end())
            all.push_back(it->second);
    });
    return MetricSummary::fromSamples(all);
}

} // namespace exp
} // namespace ich
