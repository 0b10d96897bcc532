/**
 * @file
 * Tests for the rate-grouped tick scheduler: deterministic same-rate
 * member ordering, register/unregister during dispatch, coprime mixed
 * rates (one event per group per period) and the CoalescedTimer
 * pattern.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/ticker.hh"

namespace ich
{
namespace
{

/** Records (name, tick time) into a shared journal. */
struct Recorder final : Clocked {
    std::string name;
    std::vector<std::pair<std::string, Time>> *journal = nullptr;
    std::uint64_t ticks = 0;

    void
    tick(Time now) override
    {
        ++ticks;
        if (journal)
            journal->emplace_back(name, now);
    }
};

TEST(Ticker, SameRateMembersTickInRegistrationOrder)
{
    EventQueue eq;
    Ticker ticker(eq);
    std::vector<std::pair<std::string, Time>> journal;
    Recorder a, b, c;
    a.name = "a";
    b.name = "b";
    c.name = "c";
    for (Recorder *r : {&a, &b, &c}) {
        r->journal = &journal;
        ticker.add(*r, TickRate{100, 0, 0});
    }
    EXPECT_EQ(ticker.groupCount(), 1u);
    EXPECT_EQ(ticker.memberCount(), 3u);

    eq.runUntil(250);
    ASSERT_EQ(journal.size(), 6u); // ticks at 100 and 200
    const char *expect[] = {"a", "b", "c", "a", "b", "c"};
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(journal[i].first, expect[i]);
        EXPECT_EQ(journal[i].second, Time{100} * (1 + i / 3));
    }
    // One event per period for the whole group, not one per member.
    EXPECT_EQ(eq.executedEvents(), 2u);
}

TEST(Ticker, MixedCoprimeRatesEachKeepTheirGrid)
{
    EventQueue eq;
    Ticker ticker(eq);
    Recorder three, seven;
    ticker.add(three, TickRate{3, 0, 0});
    ticker.add(seven, TickRate{7, 0, 0});
    EXPECT_EQ(ticker.groupCount(), 2u);

    eq.runUntil(21 * 10); // LCM * 10
    EXPECT_EQ(three.ticks, 70u);
    EXPECT_EQ(seven.ticks, 30u);
    // Coincident grid points (21, 42, ...) still cost one event per
    // group: total = 70 + 30.
    EXPECT_EQ(eq.executedEvents(), 100u);
    EXPECT_EQ(ticker.ticksDelivered(), 100u);
}

TEST(Ticker, PhaseAndPrioritySplitGroups)
{
    EventQueue eq;
    Ticker ticker(eq);
    std::vector<std::pair<std::string, Time>> journal;
    Recorder on_grid, shifted, low_prio;
    on_grid.name = "grid";
    shifted.name = "shift";
    low_prio.name = "late";
    on_grid.journal = shifted.journal = low_prio.journal = &journal;
    ticker.add(on_grid, TickRate{100, 0, 0});
    ticker.add(shifted, TickRate{100, 40, 0});
    ticker.add(low_prio, TickRate{100, 0, 5}); // same time, lower prio
    EXPECT_EQ(ticker.groupCount(), 3u);

    eq.runUntil(100);
    ASSERT_EQ(journal.size(), 3u);
    EXPECT_EQ(journal[0].first, "shift"); // t=40
    EXPECT_EQ(journal[1].first, "grid");  // t=100, priority 0
    EXPECT_EQ(journal[2].first, "late");  // t=100, priority 5
}

TEST(Ticker, FirstTickStrictlyAfterRegistration)
{
    EventQueue eq;
    Ticker ticker(eq);
    eq.runUntil(100); // now exactly on the would-be grid point
    Recorder r;
    ticker.add(r, TickRate{100, 0, 0});
    eq.runUntil(100);
    EXPECT_EQ(r.ticks, 0u); // not at registration time itself
    eq.runUntil(200);
    EXPECT_EQ(r.ticks, 1u);
}

/** Member that adds another member to its own group while ticking. */
struct SelfExpanding final : Clocked {
    Ticker *ticker = nullptr;
    Recorder *spawn = nullptr;
    bool done = false;

    void
    tick(Time) override
    {
        if (!done) {
            done = true;
            ticker->add(*spawn, TickRate{100, 0, 0});
        }
    }
};

TEST(Ticker, JoiningAGroupAtItsFireTimestampTicksNextPeriod)
{
    // Regression: a member added to an existing group from an event
    // ordered *before* the group's pending event at the same timestamp
    // must not be ticked at its registration time.
    EventQueue eq;
    Ticker ticker(eq);
    Recorder a, b;
    ticker.add(a, TickRate{100, 0, 0});
    // Scheduled now for t=200: lower seq than the group's t=200 event
    // (which is armed at t=100), so it dispatches first at t=200.
    eq.schedule(200, [&] { ticker.add(b, TickRate{100, 0, 0}); });
    eq.runUntil(200);
    EXPECT_EQ(a.ticks, 2u);
    EXPECT_EQ(b.ticks, 0u); // strictly after registration only
    eq.runUntil(300);
    EXPECT_EQ(b.ticks, 1u);
}

TEST(Ticker, MemberAddedDuringDispatchTicksNextPeriod)
{
    EventQueue eq;
    Ticker ticker(eq);
    SelfExpanding grower;
    Recorder spawned;
    grower.ticker = &ticker;
    grower.spawn = &spawned;
    ticker.add(grower, TickRate{100, 0, 0});

    eq.runUntil(100);
    EXPECT_EQ(spawned.ticks, 0u); // not ticked in the pass that added it
    eq.runUntil(200);
    EXPECT_EQ(spawned.ticks, 1u);
}

/** Member that removes itself (and optionally a peer) while ticking. */
struct SelfRemoving final : Clocked {
    Ticker *ticker = nullptr;
    Clocked *also = nullptr;
    std::uint64_t ticks = 0;

    void
    tick(Time) override
    {
        ++ticks;
        ticker->remove(*this);
        if (also)
            ticker->remove(*also);
    }
};

TEST(Ticker, UnregisterDuringDispatchSkipsAndStops)
{
    EventQueue eq;
    Ticker ticker(eq);
    SelfRemoving first;
    Recorder victim; // registered after `first`; removed mid-pass
    Recorder survivor;
    first.ticker = &ticker;
    first.also = &victim;
    ticker.add(first, TickRate{50, 0, 0});
    ticker.add(victim, TickRate{50, 0, 0});
    ticker.add(survivor, TickRate{50, 0, 0});

    eq.runUntil(200);
    EXPECT_EQ(first.ticks, 1u);   // removed itself after the first pass
    EXPECT_EQ(victim.ticks, 0u);  // removed before its slot in the pass
    EXPECT_EQ(survivor.ticks, 4u);
    EXPECT_EQ(ticker.memberCount(), 1u);
    EXPECT_FALSE(ticker.contains(first));
    EXPECT_TRUE(ticker.contains(survivor));
}

TEST(Ticker, EmptiedGroupStopsSchedulingAndRevives)
{
    EventQueue eq;
    Ticker ticker(eq);
    Recorder r;
    ticker.add(r, TickRate{10, 0, 0});
    eq.runUntil(25);
    EXPECT_EQ(r.ticks, 2u);
    ticker.remove(r);
    EXPECT_TRUE(eq.empty()); // the group event was descheduled
    eq.runUntil(95);
    ticker.add(r, TickRate{10, 0, 0});
    eq.runUntil(110);
    EXPECT_EQ(r.ticks, 4u); // revived on the grid: 100, 110
}

TEST(Ticker, ZeroPeriodRejected)
{
    EventQueue eq;
    Ticker ticker(eq);
    Recorder r;
    EXPECT_THROW(ticker.add(r, TickRate{0, 0, 0}),
                 std::invalid_argument);
}

TEST(CoalescedTimer, ExtendingDeadlineCostsNoHeapTraffic)
{
    EventQueue eq;
    Time deadline = 100;
    std::uint64_t fired_at = 0;
    CoalescedTimer timer;
    // Owner callback: re-check the true deadline, re-arm if early.
    struct Owner {
        EventQueue &eq;
        CoalescedTimer &timer;
        Time &deadline;
        std::uint64_t &fired_at;
        void
        fire()
        {
            timer.fired();
            if (eq.now() < deadline) {
                timer.arm(eq, deadline, [this] { fire(); });
                return;
            }
            fired_at = eq.now();
        }
    } owner{eq, timer, deadline, fired_at};

    timer.arm(eq, deadline, [&owner] { owner.fire(); });
    eq.runUntil(50);
    // Deadline extensions while pending are free no-ops.
    deadline = 300;
    timer.arm(eq, deadline, [&owner] { owner.fire(); });
    deadline = 500;
    timer.arm(eq, deadline, [&owner] { owner.fire(); });
    EXPECT_TRUE(timer.pending());

    eq.runToCompletion();
    // The early event at 100 re-armed at the then-current deadline; the
    // observable fire happened exactly at the final deadline.
    EXPECT_EQ(fired_at, 500u);
    EXPECT_FALSE(timer.pending());
}

TEST(CoalescedTimer, RetargetMovesPendingDeadlineInPlace)
{
    // retarget() moves the deadline both directions via
    // EventQueue::reschedule — one pending event throughout, and the
    // fire happens exactly at the last requested time.
    EventQueue eq;
    std::vector<Time> fires;
    CoalescedTimer timer;
    auto cb = [&] {
        timer.fired();
        fires.push_back(eq.now());
    };
    timer.retarget(eq, 100, cb);
    EXPECT_EQ(eq.size(), 1u);
    timer.retarget(eq, 300, cb); // later
    EXPECT_EQ(eq.size(), 1u);
    timer.retarget(eq, 40, cb); // earlier
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_TRUE(timer.pending());
    eq.runToCompletion();
    ASSERT_EQ(fires, (std::vector<Time>{40}));
    EXPECT_FALSE(timer.pending());

    // After the fire the handle is stale: retarget schedules fresh.
    timer.retarget(eq, 90, cb);
    EXPECT_TRUE(timer.pending());
    eq.runToCompletion();
    ASSERT_EQ(fires, (std::vector<Time>{40, 90}));
}

TEST(CoalescedTimer, RetargetAfterCancelSchedulesFresh)
{
    EventQueue eq;
    int fired = 0;
    CoalescedTimer timer;
    auto cb = [&] {
        timer.fired();
        ++fired;
    };
    timer.retarget(eq, 100, cb);
    timer.cancel(eq);
    EXPECT_FALSE(timer.pending());
    timer.retarget(eq, 200, cb);
    eq.runToCompletion();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 200u);
}

} // namespace
} // namespace ich
