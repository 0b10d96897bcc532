#include "cpu/thread.hh"

#include <cassert>
#include <cmath>

#include "cpu/core.hh"

namespace ich
{

namespace
{
/** Iteration-count slack absorbing floating-point rounding. */
constexpr double kIterEpsilon = 1e-6;

/**
 * Bounds on boundary-recurrence steps replayed per scheduleBoundary()
 * call. The dry run locates the step-end event exactly when it lies
 * within the window; otherwise the boundary event lands on the
 * window's last chunk boundary (a time the per-chunk event path also
 * woke at, so firing there is behavior-neutral) and the next refresh
 * replays onward. The window doubles from the min to the max while
 * replays survive untouched and collapses back on an external
 * re-anchor, so a rate change mid-loop never strands much staged work
 * while clean stretches still cut boundary events by the max factor.
 */
constexpr int kMinReplayBoundaries = 4;
constexpr int kMaxReplayBoundaries = 64;

/**
 * Next boundary-event time for a loop step, anchored at @p anchor —
 * bit-identical to the event-driven scheduleBoundary() arithmetic: the
 * target is the next chunk-record boundary (or the iteration cap if
 * closer), and the event lands one picosecond past the ceil'd analytic
 * crossing.
 */
Time
loopBoundaryWhen(Time anchor, double iters_done, double next_record,
                 const LoopStep &loop, double iter_ps)
{
    double target = static_cast<double>(loop.kernel.iterations);
    if (loop.recordEveryIterations > 0 && next_record < target)
        target = next_record;
    double remaining = std::max(0.0, target - iters_done);
    double ps = remaining * iter_ps;
    return anchor + static_cast<Time>(std::ceil(ps)) + 1;
}

} // namespace

HwThread::HwThread(Core &core, ChipApi &chip, CoreId core_id, int smt_idx)
    : core_(core), chip_(chip), coreId_(core_id), smtIdx_(smt_idx)
{
    replayCache_.reserve(kMaxReplayBoundaries);
}

void
HwThread::setProgram(Program prog)
{
    assert(!started_ || done_);
    prog_ = std::move(prog);
    stepIdx_ = 0;
    started_ = false;
    done_ = false;
    enteredStep_ = false;
    itersDone_ = 0.0;
    nextRecordIters_ = 0.0;
    replayCache_.clear();
    replayCacheHead_ = 0;
    replayDepth_ = kMinReplayBoundaries;
    records_.clear();
    // The program's record count is known up front; reserving here keeps
    // vector regrowth out of the simulation hot loop.
    std::size_t expected = 0;
    for (std::size_t i = 0; i < prog_.size(); ++i) {
        const ProgramStep &step = prog_.step(i);
        if (std::holds_alternative<MarkStep>(step)) {
            ++expected;
        } else if (const auto *loop = std::get_if<LoopStep>(&step)) {
            if (loop->recordEveryIterations > 0)
                expected += loop->kernel.iterations /
                            loop->recordEveryIterations;
        }
    }
    records_.reserve(expected);
}

void
HwThread::start()
{
    assert(!started_);
    started_ = true;
    done_ = prog_.empty();
    lastAccrue_ = chip_.eventQueue().now();
    chip_.activityChanged(coreId_);
    refresh();
}

const LoopStep *
HwThread::currentLoop() const
{
    if (!started_ || done_ || stepIdx_ >= prog_.size())
        return nullptr;
    return std::get_if<LoopStep>(&prog_.step(stepIdx_));
}

bool
HwThread::activeNow() const
{
    if (!started_ || done_ || stepIdx_ >= prog_.size())
        return false;
    const ProgramStep &step = prog_.step(stepIdx_);
    return std::holds_alternative<LoopStep>(step) ||
           std::holds_alternative<WaitUntilTscStep>(step);
}

std::optional<InstClass>
HwThread::currentClass() const
{
    if (!started_ || done_ || stepIdx_ >= prog_.size())
        return std::nullopt;
    const ProgramStep &step = prog_.step(stepIdx_);
    if (const auto *loop = std::get_if<LoopStep>(&step))
        return loop->kernel.cls;
    if (std::holds_alternative<WaitUntilTscStep>(step))
        return InstClass::kScalar64; // rdtsc spin
    return std::nullopt;
}

double
HwThread::iterationPicos(const LoopStep &step) const
{
    double cycles = step.kernel.cyclesPerIteration();
    double slowdown =
        core_.throttle().slowdownFactor(smtIdx_, step.kernel.cls);
    return cycles * slowdown * cyclePicos(chip_.freqGhz());
}

void
HwThread::accrueSegment(Time t0, Time t1)
{
    if (t1 <= t0)
        return;
    const ProgramStep &step = prog_.step(stepIdx_);
    double period_ps = cyclePicos(chip_.freqGhz());
    double total_cycles = static_cast<double>(t1 - t0) / period_ps;

    if (const auto *loop = std::get_if<LoopStep>(&step)) {
        if (!enteredStep_)
            return; // not yet entered (no progress to integrate)
        // Unhalted the whole interval (stalls spin, interrupts execute).
        Time exec_start = std::max(t0, std::min(stallUntil_, t1));
        double exec_ps = static_cast<double>(t1 - exec_start);
        double iter_ps = iterationPicos(*loop);
        double new_iters = exec_ps / iter_ps;
        double cap = static_cast<double>(loop->kernel.iterations);
        double before = itersDone_;
        itersDone_ = std::min(cap, itersDone_ + new_iters);
        double delta_iters = itersDone_ - before;

        double exec_cycles = exec_ps / period_ps;
        double nd_frac = core_.throttle().notDeliveredFraction(
            smtIdx_, loop->kernel.cls);
        counters_.accrue(total_cycles,
                         delta_iters * (loop->kernel.unroll + 1),
                         PerfCounters::slotsPerCycle * exec_cycles *
                             nd_frac);
    } else if (std::holds_alternative<WaitUntilTscStep>(step)) {
        // rdtsc spin: unhalted, ~1 inst/cycle, no IDQ starvation counted
        // (the spin is trivially front-end satisfiable).
        counters_.accrue(total_cycles, total_cycles, 0.0);
    }
    // IdleStep: halted — nothing accrues.
}

void
HwThread::materializeLoop(const LoopStep &loop, Time t1)
{
    // Replay the per-chunk boundary recurrence over [lastAccrue_, t1],
    // splitting the accrual exactly where the event-driven path would
    // have woken: first at the stall end, then at every chunk-record
    // crossing. Each split re-anchors the recurrence, so timestamps,
    // iteration counts and counter values stay bit-identical to the
    // per-chunk event path — records become pure data, computed without
    // event-queue round trips.
    double cap = static_cast<double>(loop.kernel.iterations);
    if (itersDone_ + kIterEpsilon >= cap)
        return; // completion (and its side effects) is advance()'s job
    double tsc_ghz = chip_.tscGhz();
    if (stallUntil_ > lastAccrue_) {
        if (stallUntil_ > t1)
            return; // still stalled: no boundary crossed by t1
        // The stall-end wakeup's segment (no progress, unhalted cycles).
        accrueSegment(lastAccrue_, stallUntil_);
        lastAccrue_ = stallUntil_;
        emitCrossedRecords(loop, stallUntil_, tsc_ghz);
    }
    if (loop.recordEveryIterations == 0)
        return; // only boundary left is the step end — a real event

    // Rates are pinned for the whole replay (any change arrives through
    // an accrue-first invalidation hook), so the per-segment queries the
    // event path re-issued every wakeup hoist out of the loop — same
    // values, same arithmetic, ~3x cheaper per record.
    double nd_frac =
        core_.throttle().notDeliveredFraction(smtIdx_, loop.kernel.cls);
    double insts_per_iter = loop.kernel.unroll + 1;

    // Consume the boundaries scheduleBoundary()'s dry run staged —
    // iteration totals, record payloads and the next-record cursor were
    // all precomputed there with the identical arithmetic, so consuming
    // one is counter accrual plus data movement.
    //
    // The staged cache IS the authoritative boundary schedule: it was
    // derived under the anchor and rates of the last refresh, exactly
    // like the event the per-chunk path would have left pending. A
    // crossing must never be recomputed here at accrue-time rates — if
    // a rate changed since the last refresh (e.g. the frequency flip
    // between beforeFreqChange() and the deassert refresh), the event
    // path would still be sleeping until its *old* boundary time, with
    // any overshot record emitted later by advance() at the wakeup
    // timestamp. Every re-anchor (stall, throttle flip, tail accrual)
    // triggers a refresh that restages before simulated time advances,
    // so crossings beyond a broken anchor chain do not exist yet by
    // construction.
    while (replayCacheHead_ < replayCache_.size()) {
        const PendingBoundary &e = replayCache_[replayCacheHead_];
        if (e.anchor != lastAccrue_ || e.when > t1)
            break;
        double before = itersDone_;
        itersDone_ = e.itersAfter;
        counters_.accrue(e.cycles,
                         (itersDone_ - before) * insts_per_iter,
                         PerfCounters::slotsPerCycle * e.cycles *
                             nd_frac);
        lastAccrue_ = e.when;
        ++replayCacheHead_;
        if (e.recCount == 1) {
            records_.push_back(e.rec);
            nextRecordIters_ = e.nextRecAfter;
        } else if (e.recCount > 1) {
            // Epsilon-rare multi-crossing: rebuild via the general loop
            // (leaves nextRecordIters_ == e.nextRecAfter by identity).
            emitCrossedRecords(loop, e.when, tsc_ghz);
        }
        if (itersDone_ + kIterEpsilon >= cap)
            return;
    }
}

void
HwThread::accrue()
{
    Time now = chip_.eventQueue().now();
    if (now <= lastAccrue_)
        return;
    if (!started_ || done_ || stepIdx_ >= prog_.size()) {
        lastAccrue_ = now;
        return;
    }
    if (!legacyChunkEvents_ && enteredStep_) {
        if (const auto *loop = std::get_if<LoopStep>(&prog_.step(stepIdx_)))
            materializeLoop(*loop, now);
    }
    accrueSegment(lastAccrue_, now);
    lastAccrue_ = now;
}

void
HwThread::materializePending()
{
    if (legacyChunkEvents_ || !started_ || done_ ||
        stepIdx_ >= prog_.size() || !enteredStep_)
        return;
    if (const auto *loop = std::get_if<LoopStep>(&prog_.step(stepIdx_)))
        materializeLoop(*loop, chip_.eventQueue().now());
}

const std::vector<Record> &
HwThread::records() const
{
    // Logically const: materialization only renders state the per-chunk
    // event path would already have made observable by now.
    const_cast<HwThread *>(this)->materializePending();
    return records_;
}

PerfCounters &
HwThread::counters()
{
    materializePending();
    return counters_;
}

const PerfCounters &
HwThread::counters() const
{
    const_cast<HwThread *>(this)->materializePending();
    return counters_;
}

double
HwThread::loopIterationsDone() const
{
    const_cast<HwThread *>(this)->materializePending();
    return itersDone_;
}

void
HwThread::emitRecord(int tag, std::uint64_t iters_done)
{
    emitRecordAt(tag, iters_done, chip_.eventQueue().now());
}

void
HwThread::emitRecordAt(int tag, std::uint64_t iters_done, Time at)
{
    Record rec;
    rec.tag = tag;
    rec.tsc = chip_.tscAt(at);
    rec.time = at;
    rec.iterationsDone = iters_done;
    records_.push_back(rec);
}

void
HwThread::emitCrossedRecords(const LoopStep &loop, Time at,
                             double tsc_ghz)
{
    while (loop.recordEveryIterations > 0 &&
           nextRecordIters_ <= itersDone_ + kIterEpsilon &&
           nextRecordIters_ <=
               static_cast<double>(loop.kernel.iterations)) {
        Record rec;
        rec.tag = loop.tag;
        // Inline tscAt(at) with the rate hoisted by the caller.
        rec.tsc = static_cast<Cycles>(
            std::llround(static_cast<double>(at) * tsc_ghz / 1000.0));
        rec.time = at;
        rec.iterationsDone =
            static_cast<std::uint64_t>(std::llround(nextRecordIters_));
        records_.push_back(rec);
        nextRecordIters_ +=
            static_cast<double>(loop.recordEveryIterations);
    }
}

void
HwThread::enterStep()
{
    assert(!enteredStep_);
    enteredStep_ = true;
    const ProgramStep &step = prog_.step(stepIdx_);
    Time now = chip_.eventQueue().now();

    if (const auto *loop = std::get_if<LoopStep>(&step)) {
        itersDone_ = 0.0;
        nextRecordIters_ =
            loop->recordEveryIterations > 0
                ? static_cast<double>(loop->recordEveryIterations)
                : 0.0;
        if (traits(loop->kernel.cls).usesAvxUnit) {
            // Pinned for the whole kernel: the idle-close countdown must
            // run from the kernel's end, not its first instruction.
            Time wake = core_.avxGate().beginUse();
            if (wake > 0)
                stallUntil_ = std::max(stallUntil_, now + wake);
        }
        chip_.phiStarted(coreId_, smtIdx_, loop->kernel.cls);
        chip_.activityChanged(coreId_);
    } else if (const auto *idle = std::get_if<IdleStep>(&step)) {
        idleEnd_ = now + idle->duration;
        chip_.activityChanged(coreId_);
    } else if (std::holds_alternative<WaitUntilTscStep>(step)) {
        chip_.activityChanged(coreId_);
    }
}

void
HwThread::finishLoopStep(const LoopStep &step)
{
    if (traits(step.kernel.cls).usesAvxUnit)
        core_.avxGate().endUse();
    chip_.kernelEnded(coreId_, smtIdx_, step.kernel.cls);
}

void
HwThread::advance()
{
    Time now = chip_.eventQueue().now();
    while (started_ && !done_) {
        if (stepIdx_ >= prog_.size()) {
            done_ = true;
            chip_.activityChanged(coreId_);
            break;
        }
        if (!enteredStep_)
            enterStep();

        const ProgramStep &step = prog_.step(stepIdx_);
        bool completed = false;

        if (const auto *loop = std::get_if<LoopStep>(&step)) {
            // Emit any chunk records whose boundary has been crossed (a
            // no-op on the analytic path, which emitted them during
            // materialization).
            emitCrossedRecords(*loop, now, chip_.tscGhz());
            if (itersDone_ + kIterEpsilon >=
                static_cast<double>(loop->kernel.iterations)) {
                finishLoopStep(*loop);
                completed = true;
            }
        } else if (const auto *wait =
                       std::get_if<WaitUntilTscStep>(&step)) {
            completed = now >= chip_.tscToTime(wait->tsc);
        } else if (std::get_if<IdleStep>(&step)) {
            completed = now >= idleEnd_;
        } else if (const auto *mark = std::get_if<MarkStep>(&step)) {
            emitRecord(mark->tag, 0);
            completed = true;
        } else if (const auto *call = std::get_if<CallStep>(&step)) {
            if (call->fn)
                call->fn();
            completed = true;
        }

        if (!completed)
            break;
        ++stepIdx_;
        enteredStep_ = false;
        chip_.activityChanged(coreId_);
    }
}

Time
HwThread::dryRunLoopBoundary(const LoopStep &loop, Time anchor)
{
    // Replay the boundary recurrence forward (the same arithmetic the
    // materializer will perform, minus counters and record emission) to
    // find the next event the thread actually needs: the step end, or
    // the kMaxReplayBoundaries'th chunk boundary, whichever is sooner.
    // Every crossing visited is cached so the materializer consumes it
    // instead of recomputing the recurrence.
    // Adapt the replay depth to the invalidation rate: a cache that was
    // consumed whole (the clean, batching-friendly case) doubles the
    // next window toward the cap; one stranded by an external re-anchor
    // (stalls, throttle flips) shrinks it, so noisy phases never stage
    // much work that a re-anchor would discard. An empty cache (first
    // boundary of a step) keeps the current window.
    if (!replayCache_.empty()) {
        if (replayCacheHead_ >= replayCache_.size())
            replayDepth_ =
                std::min(replayDepth_ * 2, kMaxReplayBoundaries);
        else
            replayDepth_ = kMinReplayBoundaries;
    }
    replayCache_.clear();
    replayCacheHead_ = 0;

    double iter_ps = iterationPicos(loop);
    double period_ps = cyclePicos(chip_.freqGhz());
    double cap = static_cast<double>(loop.kernel.iterations);
    bool chunked = loop.recordEveryIterations > 0;
    double rec_every = static_cast<double>(loop.recordEveryIterations);
    double tsc_ghz = chip_.tscGhz();
    double iters = itersDone_;
    double next_rec = nextRecordIters_;
    Time a = anchor;
    Time w = a;
    for (int k = 0; k < replayDepth_; ++k) {
        // loopBoundaryWhen()'s arithmetic. The segment [a, w) lasts the
        // integer c + 1 picoseconds, and c + 1.0 is that integer's
        // correctly rounded double: the value accrueSegment() takes as
        // static_cast<double>(w - a), so every staged value stays
        // bit-identical. Taking it from c keeps the double -> Time ->
        // double round trip off the loop-carried chain (iters -> c ->
        // exec_ps -> iters) whose latency bounds this loop.
        double target = cap;
        if (chunked && next_rec < target)
            target = next_rec;
        double remaining = std::max(0.0, target - iters);
        double c = std::ceil(remaining * iter_ps);
        w = a + static_cast<Time>(c) + 1;
        double exec_ps = c + 1.0;
        iters = std::min(cap, iters + exec_ps / iter_ps);
        PendingBoundary e;
        e.anchor = a;
        e.when = w;
        e.itersAfter = iters;
        e.cycles = exec_ps / period_ps;
        e.recCount = 0;
        // Stage the crossed records (emitCrossedRecords(), precomputed).
        while (chunked && next_rec <= iters + kIterEpsilon &&
               next_rec <= cap) {
            if (e.recCount == 0) {
                e.rec.tag = loop.tag;
                e.rec.tsc = static_cast<Cycles>(std::llround(
                    static_cast<double>(w) * tsc_ghz / 1000.0));
                e.rec.time = w;
                e.rec.iterationsDone =
                    static_cast<std::uint64_t>(std::llround(next_rec));
            }
            next_rec += rec_every;
            ++e.recCount;
        }
        e.nextRecAfter = next_rec;
        replayCache_.push_back(e);
        if (iters + kIterEpsilon >= cap)
            break; // w is the completion event
        a = w;
    }
    return w;
}

Time
HwThread::nextBoundaryTime()
{
    Time now = chip_.eventQueue().now();
    const ProgramStep &step = prog_.step(stepIdx_);

    if (stallUntil_ > now)
        return stallUntil_;
    if (const auto *loop = std::get_if<LoopStep>(&step)) {
        if (!legacyChunkEvents_ && loop->recordEveryIterations > 0)
            return dryRunLoopBoundary(*loop, now);
        // Per-chunk baseline (wake at every record boundary), and
        // unchunked loops (one boundary at the step end in both modes —
        // nothing to stage; same arithmetic either way).
        return loopBoundaryWhen(now, itersDone_, nextRecordIters_, *loop,
                                iterationPicos(*loop));
    }
    if (const auto *wait = std::get_if<WaitUntilTscStep>(&step))
        return std::max(now + 1, chip_.tscToTime(wait->tsc));
    if (std::get_if<IdleStep>(&step))
        return std::max(now + 1, idleEnd_);
    return now + 1; // mark/call resolve immediately on next refresh
}

void
HwThread::scheduleBoundary()
{
    auto &eq = chip_.eventQueue();
    if (!started_ || done_ || stepIdx_ >= prog_.size()) {
        if (boundaryEvent_ != EventQueue::kInvalidEvent) {
            eq.deschedule(boundaryEvent_);
            boundaryEvent_ = EventQueue::kInvalidEvent;
        }
        return;
    }

    Time when = nextBoundaryTime();
    if (legacyChunkEvents_ &&
        boundaryEvent_ != EventQueue::kInvalidEvent) {
        // Faithful pre-batching baseline: a deschedule+schedule pair per
        // refresh, exactly what the per-chunk path always paid.
        eq.deschedule(boundaryEvent_);
        boundaryEvent_ = EventQueue::kInvalidEvent;
    }
    // One boundary event per thread, retargeted in place on refresh; a
    // fresh schedule only when there is no live event to move (first
    // boundary of a program, or a refresh from inside the boundary
    // event's own dispatch). Checked so the capture can never silently
    // outgrow the callback's inline buffer.
    if (boundaryEvent_ != EventQueue::kInvalidEvent &&
        eq.reschedule(boundaryEvent_, when))
        return;
    boundaryEvent_ = eq.scheduleChecked(when, [this] {
        boundaryEvent_ = EventQueue::kInvalidEvent;
        refresh();
    });
}

void
HwThread::refresh()
{
    if (inRefresh_) {
        pendingRefresh_ = true;
        return;
    }
    inRefresh_ = true;
    do {
        pendingRefresh_ = false;
        accrue();
        advance();
    } while (pendingRefresh_);
    scheduleBoundary();
    inRefresh_ = false;
}

void
HwThread::stallFor(Time duration)
{
    accrue();
    Time now = chip_.eventQueue().now();
    stallUntil_ = std::max(stallUntil_, now + duration);
    refresh();
}

} // namespace ich
