/**
 * @file
 * Discrete-event simulation kernel.
 *
 * All simulator components share one EventQueue. Events are ordered by
 * (time, priority, insertion sequence) so same-timestamp events execute
 * deterministically. Events can be descheduled; cancellation is O(1).
 *
 * Hot-path design (this is the innermost loop of every covert-channel
 * trial and sweep point):
 *  - Event records live in a slab-allocated pool with free-list
 *    recycling, so schedule()/fire cycles perform no per-event heap
 *    allocation after warm-up.
 *  - Callbacks are InlineFn (small-buffer storage) instead of
 *    std::function, so the typical `[this, scalar...]` capture is stored
 *    in place.
 *  - EventId is generation-tagged (slot index + per-slot generation
 *    counter), so deschedule() validates a handle in O(1) with no id
 *    map; stale handles — already fired, already cancelled, or a slot
 *    since recycled — are no-ops by construction.
 *  - The ready queue is a flat 4-ary min-heap of POD entries; cancelled
 *    entries are dropped lazily when they surface at the root.
 */

#ifndef ICH_COMMON_EVENT_QUEUE_HH
#define ICH_COMMON_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_fn.hh"
#include "common/types.hh"

namespace ich
{

/**
 * Opaque handle identifying a scheduled event.
 *
 * Encoding: high 32 bits = slot index + 1 (so 0 stays the invalid
 * handle), low 32 bits = the slot's generation at scheduling time.
 */
using EventId = std::uint64_t;

/**
 * Deterministic discrete-event queue keyed by picosecond timestamps.
 */
class EventQueue
{
  public:
    using Callback = InlineFn<void()>;

    /** Invalid event handle. */
    static constexpr EventId kInvalidEvent = 0;

    /**
     * Dense slot index embedded in a valid handle — stable for the
     * lifetime of the pending event and bounded by the queue's slab
     * capacity, so callers can key O(1) side tables by event (the
     * Ticker's fast-forward pump does). Meaningless for kInvalidEvent.
     */
    static std::uint32_t
    slotIndex(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32) - 1;
    }

    EventQueue() = default;

    // The pool hands out interior pointers; moving the queue would not
    // preserve them cheaply and no caller needs it.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when Absolute timestamp; must be >= now().
     * @param cb Callback to invoke.
     * @param priority Tie-break among same-timestamp events (lower first).
     * @return Handle usable with deschedule().
     */
    EventId schedule(Time when, Callback cb, int priority = 0);

    /** Schedule @p cb to run @p delay picoseconds from now. */
    EventId
    scheduleIn(Time delay, Callback cb, int priority = 0)
    {
        return schedule(now_ + delay, std::move(cb), priority);
    }

    /**
     * schedule() that additionally proves at compile time the callback
     * fits the inline buffer. Hot call sites (one event per step /
     * sample / symbol / transition) use this so an accidentally
     * fattened capture is a compile error, not a silent per-event
     * allocation.
     */
    template <class F>
    EventId
    scheduleChecked(Time when, F &&f, int priority = 0)
    {
        static_assert(Callback::fits<F>(),
                      "hot-path event capture must stay allocation-free "
                      "(shrink the capture or use schedule())");
        return schedule(when, Callback(std::forward<F>(f)), priority);
    }

    /** scheduleIn() with the same compile-time inline-capture proof. */
    template <class F>
    EventId
    scheduleInChecked(Time delay, F &&f, int priority = 0)
    {
        return scheduleChecked(now_ + delay, std::forward<F>(f),
                               priority);
    }

    /**
     * Cancel a pending event. Safe to call with an already-fired,
     * already-cancelled, or otherwise stale handle (no-op) — including
     * the handle of the event currently being dispatched.
     */
    void deschedule(EventId id);

    /**
     * Retarget a pending event to fire at @p when instead, in place: the
     * heap entry is sifted to its new position, the slot, generation
     * (and so the handle), callback and priority are all preserved, and
     * a fresh insertion sequence is assigned — so the observable (time,
     * priority, seq) ordering is exactly what a deschedule()+schedule()
     * pair would produce, without the slot churn, callback move, or
     * heap tombstone.
     *
     * @return false for a stale handle (already fired, cancelled, or
     *         currently being dispatched) — the caller schedules fresh.
     */
    bool reschedule(EventId id, Time when);

    /** True if no live events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of live (not cancelled, not fired) events. */
    std::size_t size() const { return liveEvents_; }

    /**
     * Timestamp of the next live event, or ~Time{0} when empty.
     * Discards cancelled entries encountered at the head.
     */
    Time nextEventTime();

    /**
     * Peek the next live event without running it: discards cancelled
     * entries at the head, then reports the head's timestamp and
     * handle. The fast-forward pump uses this to recognize events it
     * can fire in place (Ticker rate-group fires).
     *
     * @return false when the queue is empty.
     */
    bool peekNext(Time &when, EventId &id);

    /**
     * Credit one event fired in place: advance the clock to @p when
     * and count it as executed, without touching the heap. The inline
     * fire path (Ticker::fastForward) runs the head event's work
     * directly and retargets its heap entry via reschedule(), so this
     * keeps now()/executedEvents() identical to the popped dispatch
     * path.
     */
    void creditInlineEvent(Time when);

    /**
     * Run the single next event, if any.
     * @return true if an event was executed.
     */
    bool runOne();

    /** Run all events with timestamp <= @p t, then set now() = t. */
    void runUntil(Time t);

    /**
     * Run events until the queue drains or @p horizon is exceeded.
     * @return simulated time at exit.
     */
    Time runToCompletion(Time horizon = ~Time{0});

    /** Total events executed (for stats/tests). */
    std::uint64_t executedEvents() const { return executed_; }

    /** Slots currently held by the pool (capacity diagnostic). */
    std::size_t poolCapacity() const { return slabs_.size() * kSlabSize; }

  private:
    static constexpr std::uint32_t kSlabSize = 256;
    static constexpr std::uint32_t kNilIndex = ~std::uint32_t{0};

    /** Pooled event record; stable address within its slab. */
    struct Node {
        Callback cb;
        std::uint32_t gen = 0;       ///< bumped on every slot release
        std::uint32_t nextFree = kNilIndex;
        bool live = false;           ///< scheduled and not yet cancelled/fired
    };

    /** Heap entry; POD so sift operations are plain moves. */
    struct HeapEntry {
        Time when;
        std::uint64_t seq; ///< global insertion sequence (tie-break)
        std::int32_t priority;
        std::uint32_t slot;
    };

    static bool
    entryBefore(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    Node &
    node(std::uint32_t slot)
    {
        return slabs_[slot / kSlabSize][slot % kSlabSize];
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(slot) + 1) << 32 | gen;
    }

    std::uint32_t allocSlot();
    void releaseSlot(std::uint32_t slot);

    /** Drop cancelled entries surfacing at the root; false when empty. */
    bool pruneHead();

    void heapPush(const HeapEntry &e);
    void heapPopRoot();

    /** Sift entry @p e (destined for position @p i) to its heap slot. */
    void siftAt(std::size_t i, const HeapEntry &e);

    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;

    std::vector<HeapEntry> heap_;
    std::vector<std::unique_ptr<Node[]>> slabs_;
    /**
     * Heap index of each slot's entry, maintained by every sift move. A
     * slot owns at most one heap entry (tombstoned entries keep their
     * slot until they surface), so the position is unique; it enables
     * O(log n) reschedule(). Kept as a dense
     * side array (one word per slot, grown with the pool) so the
     * per-move update stays in cache instead of touching each displaced
     * entry's pooled Node.
     */
    std::vector<std::uint32_t> heapPos_;
    std::uint32_t freeHead_ = kNilIndex;
};

} // namespace ich

#endif // ICH_COMMON_EVENT_QUEUE_HH
