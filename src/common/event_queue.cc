#include "common/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

// Branch hints for the churn hot path. The slow arms (slab growth,
// stale handles, tombstones surfacing, scheduling-into-the-past
// throws) run orders of magnitude less often than the fast arms, so
// telling the compiler keeps the fall-through path straight-line under
// -O3 where the heap-position side array already costs a few percent.
#if defined(__GNUC__) || defined(__clang__)
#define ICH_LIKELY(x) __builtin_expect(!!(x), 1)
#define ICH_UNLIKELY(x) __builtin_expect(!!(x), 0)
#else
#define ICH_LIKELY(x) (x)
#define ICH_UNLIKELY(x) (x)
#endif

namespace ich
{

EventQueue::~EventQueue() = default;

std::uint32_t
EventQueue::allocSlot()
{
    if (ICH_UNLIKELY(freeHead_ == kNilIndex)) {
        // Grow one slab and thread it onto the free list in ascending
        // slot order (order is irrelevant for event ordering — the heap
        // tie-breaks on the insertion sequence — but keeps ids tidy).
        std::uint32_t base =
            static_cast<std::uint32_t>(slabs_.size()) * kSlabSize;
        slabs_.push_back(std::make_unique<Node[]>(kSlabSize));
        heapPos_.resize(heapPos_.size() + kSlabSize);
        for (std::uint32_t i = 0; i < kSlabSize; ++i)
            node(base + i).nextFree =
                (i + 1 < kSlabSize) ? base + i + 1 : kNilIndex;
        freeHead_ = base;
    }
    std::uint32_t slot = freeHead_;
    freeHead_ = node(slot).nextFree;
    return slot;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Node &n = node(slot);
    // Invalidate every outstanding handle to this slot. Wraparound after
    // 2^32 reuses of one slot could theoretically resurrect a stale id;
    // no simulated workload comes near that.
    ++n.gen;
    n.cb.reset();
    n.live = false;
    n.nextFree = freeHead_;
    freeHead_ = slot;
}

EventId
EventQueue::schedule(Time when, Callback cb, int priority)
{
    if (ICH_UNLIKELY(when < now_))
        throw std::logic_error("EventQueue: scheduling into the past");
    std::uint32_t slot = allocSlot();
    Node &n = node(slot);
    n.cb = std::move(cb);
    n.live = true;
    heapPush({when, nextSeq_++, priority, slot});
    ++liveEvents_;
    return makeId(slot, n.gen);
}

void
EventQueue::deschedule(EventId id)
{
    std::uint64_t slotPlus1 = id >> 32;
    if (ICH_UNLIKELY(slotPlus1 == 0 ||
                     slotPlus1 > slabs_.size() * kSlabSize))
        return;
    Node &n = node(static_cast<std::uint32_t>(slotPlus1 - 1));
    if (!n.live || n.gen != static_cast<std::uint32_t>(id))
        return;
    // Tombstone: the heap entry stays until it surfaces at the root.
    // Drop the callback now so captured state is released eagerly.
    n.live = false;
    n.cb.reset();
    assert(liveEvents_ > 0);
    --liveEvents_;
}

bool
EventQueue::reschedule(EventId id, Time when)
{
    if (ICH_UNLIKELY(when < now_))
        throw std::logic_error("EventQueue: rescheduling into the past");
    std::uint64_t slotPlus1 = id >> 32;
    if (ICH_UNLIKELY(slotPlus1 == 0 ||
                     slotPlus1 > slabs_.size() * kSlabSize))
        return false;
    std::uint32_t slot = static_cast<std::uint32_t>(slotPlus1 - 1);
    Node &n = node(slot);
    if (!n.live || n.gen != static_cast<std::uint32_t>(id))
        return false;
    std::size_t i = heapPos_[slot];
    assert(i < heap_.size() && heap_[i].slot == slot);
    HeapEntry e = heap_[i];
    e.when = when;
    // A fresh sequence keeps (time, priority, seq) ordering identical to
    // the deschedule+schedule pair this replaces.
    e.seq = nextSeq_++;
    siftAt(i, e);
    return true;
}

void
EventQueue::siftAt(std::size_t i, const HeapEntry &e)
{
    // Hole-based decrease-or-increase-key: the new key either rises
    // toward the root or sinks toward the leaves, never both. The heap
    // and side array never grow inside a sift, so both are addressed
    // through raw pointers — under -O3 this drops the per-move bounds/
    // capacity reloads the vector accessors cost (the side-array write
    // doubled the memory traffic per displaced entry).
    HeapEntry *const h = heap_.data();
    std::uint32_t *const pos = heapPos_.data();
    if (i > 0 && entryBefore(e, h[(i - 1) / 4])) {
        do {
            std::size_t parent = (i - 1) / 4;
            if (!entryBefore(e, h[parent]))
                break;
            h[i] = h[parent];
            pos[h[i].slot] = static_cast<std::uint32_t>(i);
            i = parent;
        } while (i > 0);
    } else {
        const std::size_t n = heap_.size();
        for (;;) {
            std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t end = std::min(first + 4, n);
            for (std::size_t c = first + 1; c < end; ++c)
                if (entryBefore(h[c], h[best]))
                    best = c;
            if (!entryBefore(h[best], e))
                break;
            h[i] = h[best];
            pos[h[i].slot] = static_cast<std::uint32_t>(i);
            i = best;
        }
    }
    h[i] = e;
    pos[e.slot] = static_cast<std::uint32_t>(i);
}

bool
EventQueue::pruneHead()
{
    while (ICH_LIKELY(!heap_.empty())) {
        std::uint32_t slot = heap_.front().slot;
        if (ICH_LIKELY(node(slot).live))
            return true;
        heapPopRoot();
        releaseSlot(slot);
    }
    return false;
}

Time
EventQueue::nextEventTime()
{
    return pruneHead() ? heap_.front().when : ~Time{0};
}

bool
EventQueue::peekNext(Time &when, EventId &id)
{
    if (!pruneHead())
        return false;
    const HeapEntry &e = heap_.front();
    when = e.when;
    id = makeId(e.slot, node(e.slot).gen);
    return true;
}

void
EventQueue::creditInlineEvent(Time when)
{
    assert(when >= now_);
    now_ = when;
    ++executed_;
}

bool
EventQueue::runOne()
{
    for (;;) {
        if (heap_.empty())
            return false;
        HeapEntry e = heap_.front();
        heapPopRoot();
        Node &n = node(e.slot);
        if (ICH_UNLIKELY(!n.live)) {
            releaseSlot(e.slot);
            continue;
        }
        assert(e.when >= now_);
        // Mark dead before dispatch so deschedule() of the running
        // event's own handle is a no-op; the slot is recycled only
        // after the callback returns, so events it schedules can never
        // collide with it. Node addresses are slab-stable, so growth
        // inside the callback cannot invalidate @c n. The guard keeps
        // the slot from leaking when the callback throws.
        n.live = false;
        assert(liveEvents_ > 0);
        --liveEvents_;
        now_ = e.when;
        ++executed_;
        struct SlotGuard {
            EventQueue *q;
            std::uint32_t slot;
            ~SlotGuard() { q->releaseSlot(slot); }
        } guard{this, e.slot};
        n.cb();
        return true;
    }
}

void
EventQueue::runUntil(Time t)
{
    while (pruneHead() && heap_.front().when <= t)
        runOne();
    if (t > now_)
        now_ = t;
}

Time
EventQueue::runToCompletion(Time horizon)
{
    while (pruneHead() && heap_.front().when <= horizon)
        runOne();
    return now_;
}

void
EventQueue::heapPush(const HeapEntry &e)
{
    heap_.push_back(e);
    siftAt(heap_.size() - 1, e); // a tail entry can only sift up
}

void
EventQueue::heapPopRoot()
{
    assert(!heap_.empty());
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (heap_.empty())
        return;
    siftAt(0, last); // the displaced tail entry can only sift down
}

} // namespace ich
