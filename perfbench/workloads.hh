/**
 * @file
 * The benchmark's three workloads and the pass each run repeats.
 *
 *  - detect-server: roc_detect's roc-detect + roc-frontier sweeps on the
 *    16-core server preset, 2 workers, materialized path, text/JSON/CSV.
 *  - channels-desktop: grid_ber_noise's channel x noise sweep on the
 *    4-core desktop preset, 1 worker, materialized path, text/JSON/CSV.
 *  - store-sweep: a 7,500-point analytic load-line/guardband grid on the
 *    streaming path (aggregator + column-store spill, store read-back,
 *    text + CSV), 1 worker.
 *
 * The two figure workloads copy their harness's scenario definitions;
 * the golden digests, recorded from the harness binaries, pin the copies
 * to the harnesses byte for byte.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/exp.hh"
#include "trace.hh"

namespace perfbench
{

struct Workload {
    std::string name;
    /** Run in order by every pass, exactly as the harness defines them. */
    std::vector<ich::exp::ScenarioSpec> specs;
    /** Same sweeps with trial functions that record spans and counters. */
    std::vector<ich::exp::ScenarioSpec> tracedSpecs;
    /** The harness CLI the pass runs with (results dir "results"). */
    ich::exp::CliOptions cli;
    std::size_t trialsPerPass = 0;
};

/**
 * Build workload @p name. Seed 0 keeps the harness's own base seeds;
 * any other value overrides every scenario's base seed, as the
 * harness's --seed flag does. Throws std::invalid_argument on an
 * unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** Remove everything inside @p dir and (re)create it. */
void resetDir(const std::string &dir);

/**
 * Untraced pass: every scenario through exp::runAndReport, its stdout
 * captured into `<results>/<scenario>.txt`, starting from an empty
 * results directory. Returns host seconds.
 */
double runPass(const Workload &w);

/** A traced pass: its wall time, spans and boundary counts. */
struct TracedPass {
    double wallSeconds = 0.0;
    std::vector<Span> spans;
    PassCounters counters;
};

/**
 * Traced pass: the calls runAndReport makes, made one layer at a time
 * with a span around each (runner with timed sinks, store reader,
 * reporters), writing the same report bytes as runPass().
 */
TracedPass runTracedPass(const Workload &w);

/** Report file name -> FNV-1a 64 digest (16 hex digits). */
using Digests = std::map<std::string, std::string>;

/** Digests of every .txt/.json/.csv file in @p dir. */
Digests digestDir(const std::string &dir);

/**
 * Entries of @p expected that are missing from or differ in @p actual,
 * plus files in @p actual that @p expected does not list. Each is
 * described in @p detail when given.
 */
int digestMismatches(const Digests &expected, const Digests &actual,
                     std::string *detail = nullptr);

/** Golden file: "# comment" lines, then "<file> <digest>" lines. */
Digests readDigests(const std::string &path);
std::string formatDigests(const Digests &d);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
