#include "pdn/svid.hh"

#include <cassert>
#include <utility>

namespace ich
{

void
Svid::submit(double target_volts, bool is_increase, DoneCallback on_done)
{
    queue_.push_back(Txn{target_volts, is_increase, std::move(on_done)});
    if (is_increase)
        ++upInFlight_;
    if (!inFlight_)
        startNext();
}

void
Svid::startNext()
{
    assert(!inFlight_);
    if (queue_.empty())
        return;
    Txn txn = std::move(queue_.front());
    queue_.pop_front();
    inFlight_ = true;
    vr_.setTarget(txn.targetVolts,
                  [this, txn = std::move(txn)]() mutable {
                      inFlight_ = false;
                      ++completed_;
                      if (txn.isIncrease) {
                          assert(upInFlight_ > 0);
                          --upInFlight_;
                      }
                      if (txn.onDone) {
                          DoneCallback cb = std::move(txn.onDone);
                          cb();
                      }
                      // The done callback may have submitted (and
                      // thereby started) the next transaction already.
                      if (!inFlight_)
                          startNext();
                  });
}

} // namespace ich
