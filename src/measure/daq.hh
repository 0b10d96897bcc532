/**
 * @file
 * DAQ sampler: periodic multi-channel probe of simulated analog and
 * digital signals (Vcc, Icc, frequency, temperature, IPC), standing in
 * for the NI-DAQ card + sense resistors of Fig. 5. Sampling rate is
 * configurable up to the NI-PCIe-6376's 3.5 MS/s.
 *
 * Sampling rides the shared Ticker: one rate-group event covers every
 * channel (and any other component at the same rate).
 */

#ifndef ICH_MEASURE_DAQ_HH
#define ICH_MEASURE_DAQ_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ticker.hh"
#include "common/types.hh"
#include "measure/trace.hh"

namespace ich
{

/** Multi-channel periodic sampler. */
class Daq : public Clocked
{
  public:
    using Probe = std::function<double()>;

    Daq(Ticker &ticker, Time sample_interval);
    ~Daq() override;

    /** Register a probe; returns its channel index. */
    int addChannel(const std::string &name, Probe probe);

    /** Start sampling now; stops automatically at @p until. */
    void start(Time until);

    /** Stop sampling immediately. */
    void stop();

    bool running() const { return running_; }

    const Trace &trace(int channel) const { return *traces_.at(channel); }
    const Trace &trace(const std::string &name) const;
    int channels() const { return static_cast<int>(traces_.size()); }

    /** @name Clocked */
    ///@{
    void tick(Time now) override;
    ///@}

  private:
    Ticker &ticker_;
    Time interval_;
    Time until_ = 0;
    bool running_ = false;
    std::vector<Probe> probes_;
    std::vector<std::unique_ptr<Trace>> traces_;

    void sampleNow();
};

} // namespace ich

#endif // ICH_MEASURE_DAQ_HH
