/**
 * @file
 * Serial Voltage IDentification (SVID) transaction bus.
 *
 * The central PMU talks to the (shared) motherboard VR over a serial
 * interface that admits one transaction at a time (paper §2, Figure 1).
 * This serialization is the root cause of Multi-Throttling-Cores (§4.3.1):
 * when two cores request voltage increases within a few hundred cycles of
 * each other, the second transition waits for the first, so both cores'
 * throttling periods stretch until the queue drains.
 */

#ifndef ICH_PDN_SVID_HH
#define ICH_PDN_SVID_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "common/event_queue.hh"
#include "common/types.hh"
#include "pdn/vr.hh"

namespace ich
{

/**
 * FIFO of voltage transactions in front of one VoltageRegulator.
 */
class Svid
{
  public:
    using DoneCallback = std::function<void()>;

    Svid(EventQueue &eq, VoltageRegulator &vr) : eq_(eq), vr_(vr) {}

    /**
     * Enqueue a transition to @p target_volts.
     *
     * @param is_increase Marks guardband up-transitions; used by
     *        upTransitionsInFlight() which gates core throttle release.
     * @param on_done Invoked when this transaction's ramp settles.
     */
    void submit(double target_volts, bool is_increase,
                DoneCallback on_done = nullptr);

    /** True while any transaction is queued or ramping. */
    bool busy() const { return inFlight_ || !queue_.empty(); }

    /**
     * Number of not-yet-settled *increase* transactions (queued plus
     * in-flight). Cores throttled for a voltage increase are released
     * only when this count reaches zero — the Multi-Throttling-Cores
     * exacerbation.
     */
    int upTransitionsInFlight() const { return upInFlight_; }

    /** Total transactions settled (stats/tests). */
    std::uint64_t completedTransactions() const { return completed_; }

    VoltageRegulator &vr() { return vr_; }
    const VoltageRegulator &vr() const { return vr_; }

  private:
    struct Txn {
        double targetVolts;
        bool isIncrease;
        DoneCallback onDone;
    };

    EventQueue &eq_;
    VoltageRegulator &vr_;
    std::deque<Txn> queue_;
    bool inFlight_ = false;
    int upInFlight_ = 0;
    std::uint64_t completed_ = 0;

    void startNext();
};

} // namespace ich

#endif // ICH_PDN_SVID_HH
