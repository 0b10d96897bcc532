/**
 * @file
 * Hardware-thread execution model.
 *
 * A thread runs a Program step by step. Loop kernels advance at a
 * piecewise-constant rate (core frequency / per-iteration cycles /
 * throttle slowdown); the thread integrates progress analytically between
 * simulator events and schedules its own next boundary. This gives exact
 * timing without per-cycle simulation, which matters because a single
 * covert-channel transaction spans ~2 million core cycles (40 µs TX +
 * 650 µs reset-time).
 *
 * Chunk records are materialized analytically: between state
 * transitions the iteration rate is constant, so every chunk-record
 * timestamp in an interval is computable in closed form. accrue()
 * replays the per-chunk boundary recurrence over [lastAccrue, now) —
 * splitting at the stall end and at each record crossing, with
 * arithmetic bit-identical to the per-chunk event path — and the
 * thread's single boundary event targets only *real* state changes:
 * step end, stall end, or a replay-horizon checkpoint. External rate
 * changes invalidate the deferral: throttle flips arrive through
 * Core::touch() (accrue-before-change, as always), and frequency
 * changes arrive through Chip::beforeFreqChange() →
 * materializePending(), which flushes crossed records at the old rate.
 * Event count per loop step drops from O(iterations/recordEvery) to
 * O(state transitions) — the former dominated full-chip runs.
 */

#ifndef ICH_CPU_THREAD_HH
#define ICH_CPU_THREAD_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/event_queue.hh"
#include "common/types.hh"
#include "cpu/perf_counters.hh"
#include "isa/program.hh"

namespace ich
{

class Chip;
class Core;

/** One SMT hardware thread. */
class HwThread
{
  public:
    HwThread(Core &core, Chip &chip, CoreId core_id, int smt_idx);

    // Not copyable/movable: threads self-reference via scheduled events.
    HwThread(const HwThread &) = delete;
    HwThread &operator=(const HwThread &) = delete;

    /** Install a program (thread must not be running). */
    void setProgram(Program prog);

    /** Begin executing the installed program at the current time. */
    void start();

    bool started() const { return started_; }
    bool done() const { return done_; }

    /**
     * True while the thread is executing instructions (loop or rdtsc
     * spin) — i.e. contributes dynamic power and unhalted cycles.
     */
    bool activeNow() const;

    /** Instruction class currently executing, if any. */
    std::optional<InstClass> currentClass() const;

    /**
     * Timestamp records produced by Mark/chunked-Loop steps. Flushes
     * analytically-deferred chunk records up to now() first, so mid-run
     * readers (channels, spy, baselines) see exactly what the per-chunk
     * event path would have emitted by this time.
     */
    const std::vector<Record> &records() const;

    /** Counters, flushed like records() (accruals up to the last
     *  boundary the per-chunk event path would have crossed). */
    PerfCounters &counters();
    const PerfCounters &counters() const;

    /**
     * Inject an execution stall (interrupt / context switch noise). The
     * thread stops making forward progress for @p duration but remains
     * unhalted.
     */
    void stallFor(Time duration);

    /** Integrate progress up to now at the current rates. */
    void accrue();

    /**
     * Materialize deferred chunk records (and their accrual segments)
     * up to now at the current rates, without accruing the partial tail
     * past the last crossed boundary. Chip calls this on every thread
     * immediately before a frequency change; the flushing accessors use
     * it too. No-op when nothing is deferred.
     */
    void materializePending();

    /**
     * Revert to the per-chunk event-driven path: one boundary event per
     * recordEveryIterations chunk, records emitted at event dispatch.
     * Kept as the measured baseline (bench/perf_kernel BENCH_record)
     * and the byte-identity oracle for the analytic path in tests; set
     * before start().
     */
    void setLegacyChunkEvents(bool legacy) { legacyChunkEvents_ = legacy; }

    /**
     * Accrue, process step transitions, and reschedule the next boundary
     * event. Reentrancy-safe: calls arriving while a refresh is running
     * are coalesced.
     */
    void refresh();

    /** Completed iterations of the current loop step (tests); flushed
     *  like records(). */
    double loopIterationsDone() const;

  private:
    Core &core_;
    Chip &chip_;
    CoreId coreId_;
    int smtIdx_;

    Program prog_;
    std::size_t stepIdx_ = 0;
    bool started_ = false;
    bool done_ = false;
    bool enteredStep_ = false;

    // Loop-step progress.
    double itersDone_ = 0.0;
    double nextRecordIters_ = 0.0;

    // Idle-step end time (set on entry).
    Time idleEnd_ = 0;

    Time lastAccrue_ = 0;
    Time stallUntil_ = 0;

    PerfCounters counters_;
    std::vector<Record> records_;

    // Event management.
    EventId boundaryEvent_ = EventQueue::kInvalidEvent;
    bool inRefresh_ = false;
    bool pendingRefresh_ = false;
    bool legacyChunkEvents_ = false;

    const LoopStep *currentLoop() const;
    /** Picoseconds per loop iteration at current freq/throttle state. */
    double iterationPicos(const LoopStep &step) const;
    void advance();
    void enterStep();
    void scheduleBoundary();
    void emitRecord(int tag, std::uint64_t iters_done);
    void emitRecordAt(int tag, std::uint64_t iters_done, Time at);
    void finishLoopStep(const LoopStep &step);

    /**
     * Boundary crossing precomputed by scheduleBoundary()'s dry run and
     * consumed by the materializer, so the recurrence arithmetic runs
     * once per record instead of twice. An entry is usable only while
     * the replay anchor still matches (any external accrue between
     * boundaries re-anchors the recurrence and strands the tail, which
     * the materializer then recomputes directly).
     */
    struct PendingBoundary {
        Time anchor;        ///< lastAccrue_ value this entry extends
        Time when;          ///< boundary-event time
        double itersAfter;  ///< itersDone_ after accruing [anchor, when)
        double nextRecAfter; ///< nextRecordIters_ after the emission
        double cycles;      ///< unhalted cycles of [anchor, when)
        Record rec;         ///< staged record payload (recCount == 1)
        int recCount;       ///< records crossed at this boundary
    };
    std::vector<PendingBoundary> replayCache_;
    std::size_t replayCacheHead_ = 0;
    /** Current dry-run window (kMinReplayBoundaries..kMax, adaptive). */
    int replayDepth_ = 4;

    /** One accrual segment [t0, t1) at current rates (legacy accrue
     *  body; counters + loop iteration progress). */
    void accrueSegment(Time t0, Time t1);
    /** Emit every chunk record whose boundary has been crossed, stamped
     *  at time @p at (legacy advance() emission loop). @p tsc_ghz is
     *  the caller-hoisted invariant TSC rate. */
    void emitCrossedRecords(const LoopStep &loop, Time at,
                            double tsc_ghz);
    /** Replay boundary crossings in [lastAccrue_, t1] for @p loop. */
    void materializeLoop(const LoopStep &loop, Time t1);
    /** Next boundary-event time for the current step (mode-aware). */
    Time nextBoundaryTime();
    /** Dry-run the boundary recurrence to the step end (or the replay
     *  cap), filling replayCache_ and returning the time of the next
     *  *scheduled* boundary. */
    Time dryRunLoopBoundary(const LoopStep &loop, Time anchor);
};

} // namespace ich

#endif // ICH_CPU_THREAD_HH
