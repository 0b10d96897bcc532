/**
 * @file
 * Rate-grouped tick scheduler for clocked components.
 *
 * Every periodic housekeeping mechanism in the chip — RAPL power-limit
 * windows, periodic governor evaluation, thermal-model sampling, DAQ
 * probes — used to self-reschedule its own event-queue event, so N
 * components at the same rate cost N heap operations per period. The
 * Ticker coalesces that traffic: components implement Clocked and
 * register with a TickRate; the Ticker groups registrations by exact
 * (period, phase, priority) and schedules **one** event per group per
 * period, dispatching every member in deterministic registration order.
 *
 * Ordering contract: a group's event fires at phase + k*period with the
 * group's priority, exactly where a lone self-rescheduling component's
 * event would have fired — so migrating a single component onto the
 * Ticker preserves the observable (time, priority, seq) event ordering.
 * Members of one group tick back-to-back at the same timestamp in the
 * order they registered.
 *
 * Mutation during dispatch is legal: a member added while its group is
 * ticking first ticks on the *next* period; a member removed while its
 * group is ticking (itself included) is skipped for the rest of the
 * pass.
 *
 * This header also provides CoalescedTimer, the companion pattern for
 * *aperiodic* decay/hysteresis deadlines (guardband reset-time): keep
 * at most one pending event and never deschedule on deadline extension;
 * the callback re-checks its own deadline and re-arms. Extending a
 * deadline then costs zero heap operations instead of a
 * deschedule+schedule pair per update.
 */

#ifndef ICH_COMMON_TICKER_HH
#define ICH_COMMON_TICKER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/types.hh"

namespace ich
{

/** Identity of a tick group: fire at phase + k*period, tie-broken by
 *  priority among same-timestamp events. */
struct TickRate {
    Time period = 0;
    Time phase = 0;
    int priority = 0;

    bool
    operator==(const TickRate &o) const
    {
        return period == o.period && phase == o.phase &&
               priority == o.priority;
    }
};

/** Interface for components driven by the Ticker. */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Called once per period of the registered rate. */
    virtual void tick(Time now) = 0;
};

/**
 * Groups Clocked components by rate and drives each group with a single
 * event-queue event per period.
 */
class Ticker
{
  public:
    explicit Ticker(EventQueue &eq) : eq_(eq) {}

    /** Deschedules every group event — none may outlive the Ticker. */
    ~Ticker();

    Ticker(const Ticker &) = delete;
    Ticker &operator=(const Ticker &) = delete;

    EventQueue &eq() { return eq_; }

    /**
     * Register @p c to tick at @p rate (period must be nonzero). The
     * first tick fires at the earliest grid point phase + k*period
     * strictly after now(). Members registered while their group is
     * dispatching first tick on the next period.
     */
    void add(Clocked &c, TickRate rate);

    /** Unregister @p c (first matching registration; no-op if absent). */
    void remove(Clocked &c);

    /** True if @p c has a live registration. */
    bool contains(const Clocked &c) const;

    /** Live (period, phase, priority) groups (empty groups are pruned). */
    std::size_t groupCount() const { return groups_.size(); }

    /** Live registrations across all groups. */
    std::size_t memberCount() const;

    /** Total member tick() calls delivered (stats/tests). */
    std::uint64_t ticksDelivered() const { return ticks_; }

    /**
     * Fast-forward pump: while the event queue's head is one of this
     * Ticker's group events due at or before @p until, fire the group
     * in place — same members, same timestamps, same registration
     * order, same arithmetic as the popped dispatch — without the heap
     * pop/push, slot recycle, or callback construction per period. The
     * group's pending event is retargeted via reschedule(), which burns
     * exactly the insertion sequence armGroup()'s schedule() would, so
     * events scheduled by members interleave identically with the
     * stepped path (ties included) and executedEvents() is unchanged.
     * Any non-tick event at the head stops the pump and surfaces to
     * the caller's normal dispatch loop — that is how VR
     * ramp completions, SVID transactions, p-state transitions and
     * thread chunk boundaries suppress skipping.
     *
     * @return group fires performed (0 when the head is not a due tick).
     */
    std::uint64_t fastForward(Time until);

    /** Total inline group fires performed by fastForward() (stats). */
    std::uint64_t ffFires() const { return ffFires_; }

  private:
    struct Member {
        Clocked *clocked = nullptr; ///< null = removed during dispatch
        /**
         * Earliest grid point strictly after registration. Guards the
         * strictly-after-now contract when a member joins an existing
         * group whose pending event fires at the current timestamp.
         */
        Time minDue = 0;
    };

    /** One rate group; heap-allocated so event captures stay stable. */
    struct Group {
        TickRate rate;
        Time nextDue = 0;
        EventId event = EventQueue::kInvalidEvent;
        std::vector<Member> members; ///< registration order
        bool dispatching = false;
        bool hasHoles = false;
    };

    EventQueue &eq_;
    std::vector<std::unique_ptr<Group>> groups_; ///< creation order
    std::uint64_t ticks_ = 0;
    std::uint64_t ffFires_ = 0;
    /**
     * Pending-event → group index for the pump's head lookup, keyed by
     * the event's dense slot (EventQueue::slotIndex). Rebuilt lazily
     * whenever a group arms, re-arms, or is pruned; steady-state inline
     * fires keep their EventId through reschedule() so the index
     * survives whole pumped spans untouched.
     */
    std::vector<Group *> pumpIndex_;
    bool pumpIndexDirty_ = true;

    Group &groupFor(TickRate rate);
    void armGroup(Group &g);
    /**
     * Tick @p g's members due now in registration order, then compact
     * the holes left by members removed during the pass. Shared by the
     * popped and the inline fire. @return false when the group is left
     * empty (the caller prunes it).
     */
    bool tickMembers(Group &g);
    void fireGroup(Group &g);
    void fireGroupInline(Group &g);
    void pruneGroup(Group *g);

    /** Earliest grid point strictly after @p now. */
    static Time firstDueAfter(const TickRate &rate, Time now);
};

/**
 * Deadline-coalesced one-shot timer ("sloppy timer").
 *
 * For deadlines that only ever move *later* (idle timeouts, hysteresis
 * reset-times), rescheduling on every update is wasted heap traffic.
 * Instead, arm once; when the event fires, the owner's callback calls
 * fired(), re-checks its real deadline, and re-arms via arm() if the
 * deadline has moved. Extending the deadline while an event is pending
 * is free — arm() is a no-op — and the observable state change still
 * happens exactly at the true deadline, because every early fire
 * re-arms at the then-current deadline.
 */
class CoalescedTimer
{
  public:
    /** True while an event is pending (the owner must not re-arm). */
    bool pending() const { return event_ != EventQueue::kInvalidEvent; }

    /**
     * Arm the callback at @p when unless already pending. The callback
     * must call fired() before anything else, then re-check its deadline
     * and re-arm if the deadline has moved past now().
     */
    template <class F>
    void
    arm(EventQueue &eq, Time when, F &&cb, int priority = 0)
    {
        if (pending())
            return;
        event_ = eq.scheduleChecked(when, std::forward<F>(cb), priority);
    }

    /**
     * Arm at @p when, or — unlike arm() — move an already-pending
     * deadline there, in either direction, via EventQueue::reschedule():
     * the pending event is retargeted in place (callback, handle and
     * priority preserved; no deschedule+schedule pair, no heap
     * tombstone). For deadlines that genuinely move both ways (e.g. a
     * VR transition superseded by a shorter one); deadlines that only
     * extend should keep using arm(), whose no-op is cheaper still.
     */
    template <class F>
    void
    retarget(EventQueue &eq, Time when, F &&cb, int priority = 0)
    {
        if (pending() && eq.reschedule(event_, when))
            return;
        event_ = eq.scheduleChecked(when, std::forward<F>(cb), priority);
    }

    /** Mark the pending event as consumed (call first in the callback). */
    void fired() { event_ = EventQueue::kInvalidEvent; }

    /** Cancel the pending event, if any. */
    void
    cancel(EventQueue &eq)
    {
        if (!pending())
            return;
        eq.deschedule(event_);
        event_ = EventQueue::kInvalidEvent;
    }

  private:
    EventId event_ = EventQueue::kInvalidEvent;
};

} // namespace ich

#endif // ICH_COMMON_TICKER_HH
