/**
 * @file
 * Harness driver glue: the few lines every sweep executable shares —
 * standard-flag handling (--help/--list/unknown-scenario checks),
 * run-one-scenario-and-report, and reading the finished run's trials
 * back for the harness epilogue.
 *
 * A typical harness:
 *
 *   auto reg = buildScenarios();               // fill a ScenarioRegistry
 *   exp::CliOptions cli;
 *   int rc = exp::harnessSetup(argc, argv, reg, cli);
 *   if (rc >= 0) return rc;
 *   for (const auto &spec : reg.scenarios())
 *       if (exp::wantScenario(cli, spec.name)) {
 *           exp::SweepResult r = exp::runAndReport(spec, cli);
 *           // ...harness-specific commentary using r...
 *       }
 */

#ifndef ICH_EXP_DRIVER_HH
#define ICH_EXP_DRIVER_HH

#include <functional>
#include <string>

#include "exp/cli.hh"
#include "exp/report.hh"
#include "exp/scenario.hh"

namespace ich
{
namespace exp
{

/**
 * Parse the CLI into @p cli and handle the standard early-exit flags.
 * Returns -1 when the harness should proceed; otherwise the process
 * exit code (0 for --help/--list, 2 for bad flags or unknown scenario
 * names, with the message already printed).
 */
int harnessSetup(int argc, const char *const *argv,
                 const ScenarioRegistry &registry, CliOptions &cli);

/**
 * Run @p spec with the CLI's runner options, print the scenario header
 * and text report to stdout, and write JSON/CSV reports when requested.
 *
 * With --stream, the sweep runs through the ResultSink path instead:
 * trial records spill to `<out>/<scenario>.colstore` and aggregate as
 * points complete, and reports render from the store view. With
 * --render-from, nothing runs: the reports render from a prior run's
 * store. On both paths the returned SweepResult carries
 * header/points/aggregates but an *empty* trials vector, so memory
 * stays bounded no matter the grid size; epilogues read the trials
 * through forEachTrial(). All printed and written report bytes are
 * identical to the default path.
 */
SweepResult runAndReport(const ScenarioSpec &spec, const CliOptions &cli);

/**
 * Visit every trial record of @p result, as runAndReport(spec, @p cli)
 * returned it, in global-trial-index order on every path: from
 * `result.trials` on the default path, and from the run's column
 * store under --stream and --render-from. A store that cannot be read
 * is fatal (message on stderr, exit 1).
 */
void forEachTrial(const SweepResult &result, const CliOptions &cli,
                  const std::function<void(const TrialRecord &)> &fn);

/**
 * Whole-sweep rollup of @p metric across every trial forEachTrial()
 * visits (e.g. overall BER of a grid). Trials that did not emit the
 * metric contribute nothing.
 */
MetricSummary rollup(const SweepResult &result, const CliOptions &cli,
                     const std::string &metric);

} // namespace exp
} // namespace ich

#endif // ICH_EXP_DRIVER_HH
