#include "measure/daq.hh"

#include <stdexcept>

namespace ich
{

Daq::Daq(Ticker &ticker, Time sample_interval)
    : ticker_(ticker), interval_(sample_interval)
{
    if (sample_interval == 0)
        throw std::invalid_argument("Daq: zero sample interval");
}

Daq::~Daq()
{
    stop();
}

int
Daq::addChannel(const std::string &name, Probe probe)
{
    probes_.push_back(std::move(probe));
    traces_.push_back(std::make_unique<Trace>(name));
    return static_cast<int>(traces_.size()) - 1;
}

const Trace &
Daq::trace(const std::string &name) const
{
    for (const auto &t : traces_)
        if (t->name() == name)
            return *t;
    throw std::out_of_range("Daq: no trace named " + name);
}

void
Daq::start(Time until)
{
    until_ = until;
    if (running_)
        return;
    Time now = ticker_.eq().now();
    if (now > until_)
        return;
    running_ = true;
    // The sample count is known up front: one per interval plus the
    // immediate sample below. Reserve (capped — a pathological window
    // must not balloon the reservation) so recording never reallocates
    // mid-sweep.
    std::size_t expect = static_cast<std::size_t>(std::min<Time>(
        (until_ - now) / interval_ + 2, Time(1) << 20));
    for (auto &t : traces_)
        t->reserve(expect);
    sampleNow();
    // Phase-align the rate group so ticks land on t0 + k*interval.
    ticker_.add(*this, TickRate{interval_, now % interval_, 0});
}

void
Daq::stop()
{
    if (!running_)
        return;
    running_ = false;
    ticker_.remove(*this);
}

void
Daq::tick(Time now)
{
    if (now > until_) {
        stop();
        return;
    }
    sampleNow();
}

void
Daq::sampleNow()
{
    Time now = ticker_.eq().now();
    for (std::size_t i = 0; i < probes_.size(); ++i)
        traces_[i]->add(now, probes_[i]());
}

} // namespace ich
