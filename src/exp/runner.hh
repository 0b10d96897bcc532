/**
 * @file
 * SweepRunner: executes a ScenarioSpec's trial grid on a fixed-size
 * worker pool.
 *
 * Trials are embarrassingly parallel — each constructs its own
 * Simulation from a seed derived deterministically from
 * (base_seed, global_trial_index) — so a sweep run with --jobs 1 and
 * --jobs N produces byte-identical aggregates and reports.
 *
 * runStreaming() is the engine: completed points are pushed into a
 * ResultSink the moment their last trial lands, and the runner retains
 * only the points still in flight (O(jobs) buffers, not O(grid)).
 * run() is the compatibility wrapper — a MaterializeSink plus the
 * serial aggregate() pass — and doubles as the byte-identity oracle
 * for the streaming path.
 */

#ifndef ICH_EXP_RUNNER_HH
#define ICH_EXP_RUNNER_HH

#include <cstdint>
#include <optional>

#include "exp/aggregate.hh"
#include "exp/scenario.hh"
#include "exp/sink.hh"

namespace ich
{
namespace exp
{

/** Execution options (shared by all harness CLIs). */
struct RunnerOptions {
    /** Worker threads; <= 0 means std::thread::hardware_concurrency(). */
    int jobs = 0;
    /** Override the spec's base seed. */
    std::optional<std::uint64_t> seed;
    /** Override the spec's trials-per-point. */
    std::optional<int> trials;
    /**
     * Resumable-sweep directory (empty: off). When set, the runner
     * (a) skips grid points recorded as complete in
     * `<dir>/<scenario>.colstore` from a previous matching run,
     * and (b) appends every completed point to that store durably
     * (fsync'd CRC-framed chunks — O(1) per point). Results are
     * byte-identical to an uninterrupted run (metrics round-trip as
     * raw IEEE-754 bits).
     */
    std::string resumeDir;
};

/** Resolved worker count for @p jobs (<=0 → hardware concurrency). */
int resolveJobs(int jobs);

class SweepRunner
{
  public:
    explicit SweepRunner(RunnerOptions opts = {});

    /**
     * Expand the grid, run trials on the pool, and stream each
     * completed point into @p sink (completion order; see exp/sink.hh
     * for the contract). Memory stays O(open points), independent of
     * grid size. Throws std::runtime_error carrying the first failing
     * trial's message if any trial threw — in that case endSweep() is
     * never called.
     */
    StreamStats runStreaming(const ScenarioSpec &spec,
                             ResultSink &sink) const;

    /**
     * Materializing wrapper over runStreaming(): returns the full
     * SweepResult with serial aggregates. O(total trials) memory, by
     * design — prefer runStreaming() for large grids.
     */
    SweepResult run(const ScenarioSpec &spec) const;

    const RunnerOptions &options() const { return opts_; }

  private:
    RunnerOptions opts_;
};

} // namespace exp
} // namespace ich

#endif // ICH_EXP_RUNNER_HH
