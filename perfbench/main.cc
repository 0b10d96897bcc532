/**
 * @file
 * ichbench: the repository benchmark's measuring program (run it through
 * perfbench/run.py, which builds it first).
 *
 *   ichbench --workload NAME --seed N --seconds S --trace 0|1
 *            --golden-dir DIR [--workdir DIR]
 *
 * --trace 0 repeats the workload's pass for S seconds after one warm-up
 * pass and reports the end-to-end metrics: wall_s as the fastest pass and
 * trials_per_s from it, setup_s as the median over fresh launches of this
 * binary spread across the run, and the process's peak RSS.
 *
 * --trace 1 alternates untraced and traced passes for S seconds and
 * reports the per-layer metrics as medians over the traced passes, plus
 * the tracing overhead (fastest traced / fastest untraced pass - 1). The
 * spans of the first traced passes are written to DIR/spans.tsv at exit.
 *
 * Every pass's reports are digested. The untimed warm-up pass runs at
 * --seed 0 (the harnesses' own seeds) whatever --seed is, and must match
 * DIR/<workload>.digests in the golden directory. With --seed 0 every
 * later pass must match them too; with any other seed every later pass
 * must reproduce the first timed pass. A mismatch counts as a failed
 * operation and makes the exit code 1.
 *
 * Internal modes: --probe NAME (one set-up launch), --record-golden NAME
 * (write the golden file from one pass at seed 0), --digest-dir DIR
 * (print the digests of the reports in DIR in golden-file format).
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

using namespace perfbench;
namespace fs = std::filesystem;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = 0;
    std::string workdir;
    std::string goldenDir;
    std::string probe;
    std::string recordGolden;
    std::string digestDir;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value after " + arg);
        const std::string val = argv[++i];
        if (arg == "--workload")
            a.workload = val;
        else if (arg == "--seed")
            a.seed = std::stoull(val);
        else if (arg == "--seconds")
            a.seconds = std::stod(val);
        else if (arg == "--trace")
            a.trace = std::stoi(val);
        else if (arg == "--workdir")
            a.workdir = val;
        else if (arg == "--golden-dir")
            a.goldenDir = val;
        else if (arg == "--probe")
            a.probe = val;
        else if (arg == "--record-golden")
            a.recordGolden = val;
        else if (arg == "--digest-dir")
            a.digestDir = val;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    return a;
}

/** Enter @p dir (created when missing); "" stays put. */
void
enterWorkdir(const std::string &dir)
{
    if (dir.empty())
        return;
    fs::create_directories(dir);
    fs::current_path(dir);
}

// ------------------------------------------------------------ set-up

/**
 * Probe child: build the workload as the harness would and run its first
 * scenario through exp::runAndReport; the first trial to enter the trial
 * function writes the steady-clock time to stdout and ends the process.
 */
int
probeMain(const Args &a)
{
    enterWorkdir(a.workdir);
    Workload w = makeWorkload(a.probe, a.seed);
    ich::exp::ScenarioSpec spec = w.specs.front();
    spec.run = [](const ich::exp::TrialContext &) -> ich::exp::MetricMap {
        static std::atomic<bool> entered{false};
        if (!entered.exchange(true)) {
            const std::string t = std::to_string(nowNs()) + "\n";
            if (::write(1, t.data(), t.size()) < 0)
                ::_exit(3);
            ::_exit(0);
        }
        for (;;)
            ::pause(); // a sibling worker is ending the process
    };
    ich::exp::runAndReport(spec, w.cli);
    return 2; // unreachable unless the sweep ran no trial
}

/** Seconds from spawning a fresh probe process to its first trial. */
double
launchProbe(const std::string &exe, const Args &a, const std::string &dir)
{
    resetDir(dir);
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    const std::string seed = std::to_string(a.seed);
    std::vector<const char *> argv = {exe.c_str(),      "--probe",
                                      a.workload.c_str(), "--seed",
                                      seed.c_str(),      "--workdir",
                                      dir.c_str(),       nullptr};
    pid_t pid = 0;
    const std::int64_t t0 = nowNs();
    const int rc = posix_spawn(&pid, exe.c_str(), &fa, nullptr,
                               const_cast<char *const *>(argv.data()),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        throw std::runtime_error("cannot spawn the set-up probe");
    }
    std::string out;
    char buf[64];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 || out.empty())
        throw std::runtime_error("set-up probe failed");
    return (std::stoll(out) - t0) * 1e-9;
}

// ----------------------------------------------------------- digests

class DigestCheck
{
  public:
    explicit DigestCheck(Digests golden) : expected_(std::move(golden)) {}

    /** Check the reports the last pass wrote; false on a mismatch. After
     *  rebase(), they become the reference instead. */
    bool check(const std::string &dir)
    {
        Digests actual = digestDir(dir);
        if (!haveReference_) {
            expected_ = std::move(actual);
            haveReference_ = true;
            return true;
        }
        std::string detail;
        if (digestMismatches(expected_, actual, &detail) == 0)
            return true;
        std::fprintf(stderr, "digest mismatch:\n%s", detail.c_str());
        return false;
    }

    /** Take the next checked pass's reports as the reference. */
    void rebase() { haveReference_ = false; }

  private:
    Digests expected_;
    bool haveReference_ = true;
};

// ------------------------------------------------------------ output

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

/**
 * Peak RSS of this process image (VmHWM). getrusage()'s ru_maxrss would
 * not do: Linux carries it across execve, so it would report the
 * launcher's peak (run.py's Python) whenever that is larger.
 */
double
peakRssMib()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

void
writeSpans(const std::string &path,
           const std::vector<std::vector<Span>> &passes)
{
    std::ofstream f(path);
    f << "pass\tspan\tname\tstart_ns\tend_ns\tparent\tthread\ttrial\n";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const std::int64_t t0 = passes[p].empty() ? 0 : passes[p][0].start;
        for (std::size_t i = 0; i < passes[p].size(); ++i) {
            const Span &s = passes[p][i];
            f << p << '\t' << i << '\t' << s.name << '\t' << s.start - t0
              << '\t' << s.end - t0 << '\t' << s.parent << '\t' << s.thread
              << '\t' << s.trial << '\n';
        }
    }
}

/** Unit of a per-layer metric, from its name. */
std::string
layerUnit(const std::string &name)
{
    auto ends = [&name](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_ms"))
        return "ms";
    if (name.find("_us_per_") != std::string::npos)
        return "us";
    if (name.find("_ns_per_") != std::string::npos)
        return "ns";
    if (ends("mib"))
        return "MiB";
    if (ends("_frac"))
        return "fraction";
    return "count";
}

// --------------------------------------------------------------- runs

constexpr int kMinPasses = 5;
constexpr int kSetupLaunches = 21;
constexpr std::size_t kSpanPassesKept = 2;

int
runMain(const Args &a)
{
    const std::string exe = fs::read_symlink("/proc/self/exe").string();
    DigestCheck digests(
        readDigests(a.goldenDir + "/" + a.workload + ".digests"));
    Workload w = makeWorkload(a.workload, a.seed);
    enterWorkdir(a.workdir);
    const std::string probeDir = fs::absolute("probe").string();

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto checkPass = [&](const Workload &pass) {
        attempted += pass.trialsPerPass;
        if (!digests.check(pass.cli.outDir))
            ++failed;
    };

    // Warm-up (lazy set-up, page cache) at the harnesses' seeds, checked
    // against the golden digests whatever --seed is: reports that go
    // wrong the same way on every pass fail at any seed. At another seed
    // the first timed pass then becomes the reference.
    const Workload golden = a.seed == 0 ? w : makeWorkload(a.workload, 0);
    runPass(golden);
    checkPass(golden);
    if (a.seed != 0)
        digests.rebase();

    std::vector<double> walls;
    std::vector<double> tracedWalls;
    std::vector<double> setups;
    std::map<std::string, std::vector<double>> layers;
    std::vector<std::vector<Span>> keptSpans;

    const std::int64_t start = nowNs();
    const double window = a.seconds * 1e9;
    auto elapsed = [&]() { return static_cast<double>(nowNs() - start); };
    for (int pass = 0;; ++pass) {
        if (a.trace == 0) {
            // Set-up launches spread over the run, between passes.
            while (static_cast<int>(setups.size()) < kSetupLaunches &&
                   setups.size() * window / kSetupLaunches <= elapsed())
                setups.push_back(launchProbe(exe, a, probeDir));
            walls.push_back(runPass(w));
            checkPass(w);
        } else if (pass % 2 == 0) {
            walls.push_back(runPass(w));
            checkPass(w);
        } else {
            TracedPass t = runTracedPass(w);
            checkPass(w);
            tracedWalls.push_back(t.wallSeconds);
            for (const auto &kv : layerMetrics(t.spans, t.counters))
                layers[kv.first].push_back(kv.second);
            if (keptSpans.size() < kSpanPassesKept)
                keptSpans.push_back(std::move(t.spans));
        }
        const int passes = static_cast<int>(
            a.trace == 0 ? walls.size()
                         : std::min(walls.size(), tracedWalls.size()));
        if (elapsed() >= window && passes >= kMinPasses &&
            (a.trace == 1 ||
             static_cast<int>(setups.size()) >= kSetupLaunches))
            break;
    }
    fs::remove_all(probeDir);

    const bool correct = failed == 0;
    std::printf("%s seed %llu: %zu passes of %zu trials; %s: %s\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                walls.size() + tracedWalls.size(), w.trialsPerPass,
                a.seed == 0 ? "golden digests"
                            : "golden digests (seed-0 warm-up), then "
                              "first-pass digests",
                correct ? "held" : "MISMATCHED");

    // Timings are of the fastest pass, not the median one: this host
    // switches between fast and slow states many times a run, and the
    // share of slow passes moves a run's median by up to ~40% while its
    // fastest pass stays within a few percent (NOTES.md, "Host facts").
    auto fastest = [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    };
    std::vector<Metric> out;
    if (a.trace == 0) {
        const double wall = fastest(walls);
        out = {{"wall_s", wall, "s"},
               {"trials_per_s", w.trialsPerPass / wall, "1/s"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mib", peakRssMib(), "MiB"}};
        std::printf("  %-14s %12.6f %-4s fastest of %zu passes; median "
                    "%.6f s, IQR %.1f%%\n",
                    "wall_s", wall, "s", walls.size(), median(walls),
                    100 * iqrShare(walls));
        std::printf("  %-14s %12.3f %-4s trials per pass / wall_s\n",
                    "trials_per_s", out[1].value, "1/s");
        std::printf("  %-14s %12.6f %-4s median of %zu launches, IQR "
                    "%.1f%%\n",
                    "setup_s", out[2].value, "s", setups.size(),
                    100 * iqrShare(setups));
        std::printf("  %-14s %12.3f %-4s process peak\n", "peak_rss_mib",
                    out[3].value, "MiB");
    } else {
        const double overhead = fastest(tracedWalls) / fastest(walls) - 1.0;
        out.push_back({"trace_overhead_frac", overhead, "fraction"});
        for (const auto &kv : layers)
            out.push_back(
                {kv.first, median(kv.second), layerUnit(kv.first)});
        std::printf("  %zu traced / %zu untraced passes; tracing overhead "
                    "%.1f%%\n",
                    tracedWalls.size(), walls.size(), 100 * overhead);
        for (const Metric &m : out)
            std::printf("  %-36s %14.6g %-9s IQR %.1f%%\n", m.name.c_str(),
                        m.value, m.unit.c_str(),
                        layers.count(m.name)
                            ? 100 * iqrShare(layers[m.name])
                            : 0.0);
        writeSpans("spans.tsv", keptSpans);
        std::printf("  spans of %zu traced passes: %s\n", keptSpans.size(),
                    fs::absolute("spans.tsv").c_str());
    }
    printResult(correct, attempted, failed, out);
    return correct ? 0 : 1;
}

int
recordGoldenMain(const Args &a)
{
    Workload w = makeWorkload(a.recordGolden, 0);
    const std::string golden =
        fs::absolute(a.goldenDir + "/" + w.name + ".digests").string();
    enterWorkdir(a.workdir);
    runPass(w);
    std::ofstream f(golden);
    f << "# FNV-1a 64 digests of the reports one " << w.name
      << " pass writes at\n# --seed 0, recorded from its first clean "
         "pass (ichbench --record-golden).\n"
      << formatDigests(digestDir(w.cli.outDir));
    std::printf("wrote %s\n", golden.c_str());
    return f ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args a = parseArgs(argc, argv);
        if (!a.digestDir.empty()) {
            std::printf("%s", formatDigests(digestDir(a.digestDir)).c_str());
            return 0;
        }
        if (!a.probe.empty())
            return probeMain(a);
        if (!a.recordGolden.empty())
            return recordGoldenMain(a);
        if (a.workload.empty() || a.seconds <= 0)
            throw std::invalid_argument(
                "--workload and --seconds (> 0) are required");
        return runMain(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ichbench: %s\n", e.what());
        return 2;
    }
}
