#include "exp/cli.hh"

#include <algorithm>
#include <stdexcept>

namespace ich
{
namespace exp
{

namespace
{

/** Upper bounds of --jobs and --trials. A sweep starts one thread per
 *  job, so a larger --jobs buys nothing but a risk of a failed spawn. */
constexpr std::uint64_t kMaxJobs = 1024;
constexpr std::uint64_t kMaxTrials = 1'000'000;

std::uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    try {
        // stoull tolerates signs and whitespace; require plain digits.
        if (text.empty() ||
            text.find_first_not_of("0123456789") != std::string::npos)
            throw std::invalid_argument("not a plain number");
        std::size_t pos = 0;
        std::uint64_t v = std::stoull(text, &pos);
        if (pos != text.size())
            throw std::invalid_argument("trailing characters");
        return v;
    } catch (const std::exception &) {
        throw std::invalid_argument(flag + ": expected a non-negative "
                                           "integer, got '" +
                                    text + "'");
    }
}

int
parsePositiveInt(const std::string &flag, const std::string &text,
                 std::uint64_t max)
{
    std::uint64_t v = parseU64(flag, text);
    if (v == 0 || v > max)
        throw std::invalid_argument(flag + ": value out of range: '" + text +
                                    "'");
    return static_cast<int>(v);
}

} // namespace

CliOptions
parseCli(int argc, const char *const *argv)
{
    CliOptions cli;
    bool saw_out = false;
    auto next = [&](int &i, const std::string &flag) -> std::string {
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + ": missing value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            cli.jobs = parsePositiveInt(arg, next(i, arg), kMaxJobs);
        } else if (arg == "--seed") {
            cli.seed = parseU64(arg, next(i, arg));
        } else if (arg == "--trials") {
            cli.trials = parsePositiveInt(arg, next(i, arg), kMaxTrials);
        } else if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--csv") {
            cli.csv = true;
        } else if (arg == "--out") {
            cli.outDir = next(i, arg);
            if (cli.outDir.empty())
                throw std::invalid_argument("--out: empty directory");
            saw_out = true;
        } else if (arg == "--resume") {
            cli.resume = true;
        } else if (arg == "--stream") {
            cli.stream = true;
        } else if (arg == "--render-from") {
            cli.renderFrom = next(i, arg);
            if (cli.renderFrom.empty())
                throw std::invalid_argument(
                    "--render-from: empty directory");
        } else if (arg == "--list") {
            cli.list = true;
        } else if (arg == "--help" || arg == "-h") {
            cli.help = true;
        } else if (!arg.empty() && arg[0] == '-') {
            throw std::invalid_argument("unknown flag '" + arg + "'");
        } else {
            cli.scenarios.push_back(arg);
        }
    }
    // --out implies wanting the files — applied after the loop so the
    // implication is flag-order independent; explicit format flags
    // anywhere on the line narrow it.
    if (saw_out && !cli.json && !cli.csv) {
        cli.json = true;
        cli.csv = true;
    }
    return cli;
}

std::string
cliUsage(const std::string &prog)
{
    return "usage: " + prog +
           " [options] [SCENARIO...]\n"
           "  --jobs N, -j N  worker threads (default: hardware "
           "concurrency)\n"
           "  --seed S        override the base seed\n"
           "  --trials N      override trials per grid point\n"
           "  --json          write <scenario>.json to the results dir\n"
           "  --csv           write <scenario>.csv to the results dir\n"
           "  --out DIR       results directory (default: results; "
           "implies --json --csv)\n"
           "  --resume        checkpoint completed points into the "
           "results dir\n"
           "                  and skip points an interrupted run "
           "finished\n"
           "  --stream        memory-bounded results: spill trials to "
           "the columnar\n"
           "                  store and aggregate points as they "
           "complete\n"
           "  --render-from DIR\n"
           "                  re-render reports from DIR's column store "
           "without\n"
           "                  re-simulating (store identity must match)\n"
           "  --list          list scenarios and exit\n"
           "  --help, -h      this text\n"
           "With no SCENARIO arguments every scenario runs.\n";
}

RunnerOptions
toRunnerOptions(const CliOptions &cli)
{
    RunnerOptions opts;
    opts.jobs = cli.jobs;
    opts.seed = cli.seed;
    opts.trials = cli.trials;
    if (cli.resume)
        opts.resumeDir = cli.outDir;
    return opts;
}

bool
wantScenario(const CliOptions &cli, const std::string &name)
{
    if (cli.scenarios.empty())
        return true;
    return std::find(cli.scenarios.begin(), cli.scenarios.end(), name) !=
           cli.scenarios.end();
}

} // namespace exp
} // namespace ich
