/**
 * @file
 * Spans recorded from outside the simulator: the benchmark wraps each
 * call into a public entry point (runner, sinks, store, reporters,
 * channel calibrate/transmit, detector trials) in a span, keeps the
 * spans in memory, and derives per-layer metrics from them after the
 * pass.
 *
 * A span's layer is its name up to the first '.', so "exp.colstore.write"
 * belongs to "exp" and "chip.sim" to "chip". The root span of a pass is
 * named "pass"; its self time is the unattributed remainder (other_ms).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Host steady-clock time in nanoseconds (CLOCK_MONOTONIC on Linux). */
std::int64_t nowNs();

/** One closed span of a pass. */
struct Span {
    const char *name = "";    ///< string literal; layer = prefix to '.'
    std::int64_t start = 0;   ///< ns, nowNs() clock
    std::int64_t end = 0;
    std::int64_t parent = -1; ///< index into the pass's span vector
    int thread = 0;           ///< 0 = thread that opened the first span
    std::int64_t trial = -1;  ///< global trial index, -1 outside trials
};

using SpanId = std::uint64_t;

/**
 * Process-wide span recorder. Each thread appends to its own buffer, so
 * worker threads never contend; spans nest through a per-thread stack.
 * A span opened on a thread whose stack is empty (a runner worker) gets
 * the worker parent set by the thread that started the runner.
 */
class Tracer
{
  public:
    static SpanId open(const char *name, std::int64_t trial = -1);
    static void close(SpanId id);
    /** Parent for spans opened on threads with an empty stack. */
    static void setWorkerParent(SpanId id);
    static void clearWorkerParent();
    /**
     * Merge every thread's spans into one vector ordered by start time,
     * with parents resolved to indices, and reset the recorder. Call
     * only while no other thread records spans.
     */
    static std::vector<Span> collect();
};

/** RAII span. */
class Scope
{
  public:
    explicit Scope(const char *name, std::int64_t trial = -1)
        : id_(Tracer::open(name, trial))
    {
    }
    ~Scope() { Tracer::close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    SpanId id() const { return id_; }

  private:
    SpanId id_;
};

/**
 * Wall-clock self time of every span, in ns: its duration minus the part
 * its children cover. Where several spans with no active child run at
 * once (sibling trials on different workers), each is charged an equal
 * share of the shared interval, so the self times of all spans add up to
 * the union of the root spans' intervals.
 */
std::vector<double> selfTimesNs(const std::vector<Span> &spans);

/** Counts the benchmark reads at span boundaries during one pass. */
struct PassCounters {
    int workers = 1;
    // channels (trial wrapper + CovertChannel::SimHooks)
    double calibrationSymbols = 0;
    double payloadSymbols = 0;
    double simEvents = 0;
    double simNs = 0; ///< simulated time
    double pumpFires = 0;
    double pumpSpans = 0;
    double pumpSuppressions = 0;
    double pstateTransitions = 0;
    double throttleAsserts = 0;
    // detect (trial outputs)
    double detectorSamples = 0;
    // exp (files the pass wrote)
    double storeBytes = 0;
    double reportBytes = 0;
    // exp.scenario, timed by direct calls outside the pass
    double expandNs = 0;
    double fingerprintNs = 0;
};

/**
 * Per-layer metrics of one traced pass (names as in BENCHMARK.json's
 * per_layer list, values per pass). Layers a workload does not exercise
 * read 0.
 */
std::map<std::string, double> layerMetrics(const std::vector<Span> &spans,
                                           const PassCounters &counters);

/** The layers layerMetrics() reports as "layer.<name>_ms". */
extern const char *const kLayers[];
extern const std::size_t kNumLayers;

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
