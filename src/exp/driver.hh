/**
 * @file
 * Harness driver glue: the few lines every sweep executable shares —
 * standard-flag handling (--help/--list/unknown-scenario checks), and
 * run-one-scenario-and-report.
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
 * points complete, reports render from the store view, and the
 * returned SweepResult carries header/points/aggregates but an *empty*
 * trials vector — memory stays bounded no matter the grid size. All
 * printed and written report bytes are identical to the default path.
 */
SweepResult runAndReport(const ScenarioSpec &spec, const CliOptions &cli);

} // namespace exp
} // namespace ich

#endif // ICH_EXP_DRIVER_HH
