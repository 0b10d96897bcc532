/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, tie-breaking,
 * cancellation, horizon semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/event_queue.hh"

namespace ich
{
namespace
{

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTimestampOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(1); }, /*priority=*/5);
    eq.schedule(100, [&] { order.push_back(2); }, /*priority=*/0);
    eq.schedule(100, [&] { order.push_back(3); }, /*priority=*/5);
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, SchedulingIntoThePastThrows)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runToCompletion();
    EXPECT_THROW(eq.schedule(50, [] {}), std::logic_error);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(100, [&] { fired = true; });
    eq.deschedule(id);
    eq.runToCompletion();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleIsIdempotent)
{
    EventQueue eq;
    EventId id = eq.schedule(100, [] {});
    eq.deschedule(id);
    eq.deschedule(id); // no-op
    eq.deschedule(9999); // unknown id: no-op
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(5000);
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventQueue, RunUntilExecutesOnlyDueEvents)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.runUntil(150);
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 150u);
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> reschedule = [&] {
        if (++count < 5)
            eq.scheduleIn(10, reschedule);
    };
    eq.scheduleIn(10, reschedule);
    eq.runToCompletion();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, RunToCompletionStopsAtHorizon)
{
    EventQueue eq;
    bool late = false;
    eq.schedule(100, [] {});
    eq.schedule(2000, [&] { late = true; });
    eq.runToCompletion(1000);
    EXPECT_FALSE(late);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
    eq.schedule(10, [] {});
    EXPECT_TRUE(eq.runOne());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ExecutedEventsCounterCountsOnlyFired)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    eq.deschedule(id);
    eq.runToCompletion();
    EXPECT_EQ(eq.executedEvents(), 1u);
}

TEST(EventQueue, CancelledHeadDoesNotBlockRunUntil)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(100, [] {});
    eq.schedule(200, [&] { fired = true; });
    eq.deschedule(id);
    eq.runUntil(250);
    EXPECT_TRUE(fired);
}

TEST(EventQueue, DescheduleOfCurrentlyDispatchingEventIsNoOp)
{
    EventQueue eq;
    EventId self = EventQueue::kInvalidEvent;
    bool later = false;
    self = eq.schedule(100, [&] {
        // The event is already off the queue; its handle is stale.
        eq.deschedule(self);
    });
    eq.schedule(200, [&] { later = true; });
    eq.runToCompletion();
    EXPECT_TRUE(later);
    EXPECT_EQ(eq.executedEvents(), 2u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleAfterFireIsStaleEvenWhenSlotIsReused)
{
    EventQueue eq;
    EventId first = eq.schedule(10, [] {});
    ASSERT_TRUE(eq.runOne());
    // The fired event's slot is free; the next schedule reuses it with a
    // fresh generation, so the stale handle must not cancel it.
    bool fired = false;
    EventId second = eq.schedule(20, [&] { fired = true; });
    EXPECT_NE(first, second);
    eq.deschedule(first);
    EXPECT_EQ(eq.size(), 1u);
    eq.runToCompletion();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, DescheduleDuringDispatchCannotKillSlotReuser)
{
    EventQueue eq;
    EventId self = EventQueue::kInvalidEvent;
    bool successor = false;
    self = eq.schedule(100, [&] {
        // The new event may reuse the dispatching event's slot; the
        // stale self-handle must not touch it.
        eq.scheduleIn(50, [&] { successor = true; });
        eq.deschedule(self);
    });
    eq.runToCompletion();
    EXPECT_TRUE(successor);
}

TEST(EventQueue, ManySameTimestampEventsOrderedAcrossPriorities)
{
    EventQueue eq;
    std::vector<std::pair<int, int>> order; // (priority, insertion idx)
    for (int i = 0; i < 100; ++i) {
        int prio = i % 10;
        eq.schedule(500, [&order, prio, i] { order.emplace_back(prio, i); },
                    prio);
    }
    eq.runToCompletion();
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t k = 1; k < order.size(); ++k) {
        // Sorted by priority; equal priorities keep insertion order.
        EXPECT_LE(order[k - 1].first, order[k].first);
        if (order[k - 1].first == order[k].first) {
            EXPECT_LT(order[k - 1].second, order[k].second);
        }
    }
}

TEST(EventQueue, PoolReusesSlotsAcrossThousandsOfScheduleCancelCycles)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int cycle = 0; cycle < 5000; ++cycle) {
        EventId keep = eq.schedule(eq.now() + 5, [&] { ++fired; });
        EventId kill = eq.schedule(eq.now() + 6, [&] { ++fired; });
        eq.deschedule(kill);
        EXPECT_EQ(eq.size(), 1u);
        eq.runUntil(eq.now() + 10);
        EXPECT_TRUE(eq.empty());
        (void)keep;
    }
    EXPECT_EQ(fired, 5000u);
    EXPECT_EQ(eq.executedEvents(), 5000u);
    // Steady-state churn recycles a handful of slots; the pool must not
    // have grown beyond its first slab.
    EXPECT_LE(eq.poolCapacity(), 256u);
}

TEST(EventQueue, PoolGrowsUnderBurstThenDrainsCorrectly)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 5000; ++i)
        ids.push_back(eq.schedule(1000 + i, [&order, i] {
            order.push_back(i);
        }));
    for (int i = 1; i < 5000; i += 2)
        eq.deschedule(ids[i]);
    EXPECT_EQ(eq.size(), 2500u);
    EXPECT_GE(eq.poolCapacity(), 5000u);
    eq.runToCompletion();
    ASSERT_EQ(order.size(), 2500u);
    for (std::size_t k = 0; k < order.size(); ++k)
        EXPECT_EQ(order[k], static_cast<int>(2 * k));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ThrowingCallbackDoesNotLeakItsSlot)
{
    EventQueue eq;
    eq.schedule(10, [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(eq.runOne(), std::runtime_error);
    EXPECT_TRUE(eq.empty());
    bool fired = false;
    eq.schedule(20, [&] { fired = true; });
    eq.runToCompletion();
    EXPECT_TRUE(fired);
    // The thrower's slot was recycled, not leaked.
    EXPECT_LE(eq.poolCapacity(), 256u);
}

TEST(EventQueue, HandlesStayUniqueAcrossSlotReuse)
{
    EventQueue eq;
    std::vector<EventId> seen;
    for (int i = 0; i < 1000; ++i) {
        EventId id = eq.schedule(eq.now() + 1, [] {});
        for (EventId old : seen)
            EXPECT_NE(id, old);
        seen.push_back(id);
        eq.runOne();
    }
}

TEST(EventQueue, RescheduleMovesEventLater)
{
    EventQueue eq;
    std::vector<int> order;
    EventId a = eq.schedule(10, [&] { order.push_back(0); });
    eq.schedule(20, [&] { order.push_back(1); });
    eq.schedule(30, [&] { order.push_back(2); });
    // Sift-down retarget: 10 -> 25 lands between the other two.
    EXPECT_TRUE(eq.reschedule(a, 25));
    EXPECT_EQ(eq.size(), 3u);
    eq.runToCompletion();
    ASSERT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueue, RescheduleMovesEventEarlier)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(20, [&] { order.push_back(1); });
    eq.schedule(30, [&] { order.push_back(2); });
    EventId a = eq.schedule(40, [&] { order.push_back(0); });
    // Sift-up retarget: 40 -> 10 becomes the new head.
    EXPECT_TRUE(eq.reschedule(a, 10));
    eq.runToCompletion();
    ASSERT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RescheduleKeepsHandleValidAndCallback)
{
    EventQueue eq;
    int fired = 0;
    Time fired_at = 0;
    EventId a = eq.schedule(10, [&] {
        ++fired;
        fired_at = eq.now();
    });
    EXPECT_TRUE(eq.reschedule(a, 50));
    EXPECT_TRUE(eq.reschedule(a, 30)); // same handle, repeatedly
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(fired_at, 30u); // the callback moved with the event

    int cancelled = 0;
    EventId b = eq.schedule(110, [&] { ++cancelled; });
    EXPECT_TRUE(eq.reschedule(b, 150));
    eq.deschedule(b); // handle still cancels the (moved) event
    eq.runUntil(200);
    EXPECT_EQ(cancelled, 0);
}

TEST(EventQueue, RescheduleAssignsFreshInsertionSequence)
{
    // A retargeted event ties with a later-scheduled event at the same
    // timestamp exactly as a deschedule+schedule pair would: it fires
    // after it.
    EventQueue eq;
    std::vector<int> order;
    EventId a = eq.schedule(10, [&] { order.push_back(0); });
    eq.schedule(40, [&] { order.push_back(1); });
    EXPECT_TRUE(eq.reschedule(a, 40));
    eq.runToCompletion();
    ASSERT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventQueue, RescheduleStaleIdIsRejected)
{
    EventQueue eq;
    EventId a = eq.schedule(10, [] {});
    eq.deschedule(a);
    EXPECT_FALSE(eq.reschedule(a, 20)); // cancelled
    bool fired = false;
    EventId b = eq.schedule(5, [&] { fired = true; });
    eq.runOne();
    EXPECT_TRUE(fired);
    EXPECT_FALSE(eq.reschedule(b, 30)); // already fired
    EXPECT_FALSE(eq.reschedule(EventQueue::kInvalidEvent, 30));
    eq.runToCompletion();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RescheduleDuringDispatchIsRejected)
{
    // The dispatching event's handle is stale inside its own callback —
    // callers fall back to a fresh schedule, and the old handle cannot
    // resurrect or clobber anything.
    EventQueue eq;
    int fired = 0;
    EventId a = 0;
    a = eq.schedule(10, [&] {
        ++fired;
        EXPECT_FALSE(eq.reschedule(a, 50));
    });
    eq.runToCompletion();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RescheduleIntoThePastThrows)
{
    EventQueue eq;
    EventId a = eq.schedule(100, [] {});
    eq.runUntil(50);
    EXPECT_THROW(eq.reschedule(a, 10), std::logic_error);
    eq.deschedule(a);
}

TEST(EventQueue, RescheduleStressAgainstTombstones)
{
    // Interleave reschedules with cancels so retargets sift across a
    // heap full of live entries and tombstones; ordering must stay
    // exactly (time, priority, seq).
    EventQueue eq;
    std::vector<std::pair<Time, int>> fired;
    std::vector<EventId> ids;
    for (int i = 0; i < 300; ++i)
        ids.push_back(eq.schedule(100 + 7 * ((i * 37) % 100),
                                  [&fired, i, &eq] {
                                      fired.push_back({eq.now(), i});
                                  }));
    for (int i = 0; i < 300; i += 3)
        eq.deschedule(ids[i]);
    for (int i = 1; i < 300; i += 3)
        EXPECT_TRUE(eq.reschedule(ids[i], 100 + 11 * ((i * 53) % 90)));
    eq.runToCompletion();
    EXPECT_EQ(fired.size(), 200u);
    for (std::size_t k = 1; k < fired.size(); ++k)
        EXPECT_LE(fired[k - 1].first, fired[k].first);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace ich
