/**
 * @file
 * Shared command-line options for the experiment harnesses.
 *
 * Every harness built on the SweepRunner understands the same flags:
 *
 *   --jobs N      worker threads (default: hardware concurrency)
 *   --seed S      override every scenario's base seed
 *   --trials N    override trials-per-point
 *   --json        write <scenario>.json into the results directory
 *   --csv         write <scenario>.csv into the results directory
 *   --out DIR     results directory (default "results"; implies files)
 *   --resume      resumable sweep: checkpoint completed points into
 *                 the results directory, and skip points a previous
 *                 interrupted run already finished
 *   --stream      memory-bounded result path: spill trial records to
 *                 the columnar store in the results directory and
 *                 aggregate points as they complete, instead of
 *                 materializing every trial in memory; reports are
 *                 byte-identical to the materialized path
 *   --render-from DIR
 *                 no simulation: re-render reports (and the harness
 *                 epilogue) from the column store a previous --stream /
 *                 --resume run left in DIR; the store must match the
 *                 scenario's grid/seed/trials identity
 *   --list        list available scenarios and exit
 *   --help        usage
 *   NAME...       positional: run only the named scenarios
 */

#ifndef ICH_EXP_CLI_HH
#define ICH_EXP_CLI_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/runner.hh"

namespace ich
{
namespace exp
{

struct CliOptions {
    int jobs = 0; ///< <= 0: hardware concurrency
    std::optional<std::uint64_t> seed;
    std::optional<int> trials;
    bool json = false;
    bool csv = false;
    std::string outDir = "results";
    bool resume = false;
    /** Streaming result path: spill to the column store, aggregate on
     *  the fly, keep no in-memory trial vector (million-point sweeps). */
    bool stream = false;
    /** Non-empty: skip simulation, re-render from this results dir. */
    std::string renderFrom;
    bool list = false;
    bool help = false;
    std::vector<std::string> scenarios; ///< empty: run everything
};

/**
 * Parse argv (argv[0] is skipped). Throws std::invalid_argument with a
 * human-readable message on unknown flags or malformed values.
 */
CliOptions parseCli(int argc, const char *const *argv);

/** Usage text for --help / parse errors. */
std::string cliUsage(const std::string &prog);

/** Runner options implied by the CLI flags. */
RunnerOptions toRunnerOptions(const CliOptions &cli);

/** True when @p name was selected (no positional args selects all). */
bool wantScenario(const CliOptions &cli, const std::string &name);

} // namespace exp
} // namespace ich

#endif // ICH_EXP_CLI_HH
