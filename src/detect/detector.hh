/**
 * @file
 * Online covert-channel detection subsystem (the ROADMAP's arms-race
 * item).
 *
 * The paper's mitigation story (tab01) is static: attacks run,
 * mitigations dampen them, nothing *watches* for channel activity at
 * runtime. This subsystem adds the watcher: detectors ride the chip's
 * shared Ticker as Clocked members and sample — read-only — the very
 * observables the IChannels spy exploits: per-core throttle residency
 * and assert counts, P-state/frequency transitions, and package power
 * over RAPL-style windows.
 *
 * Contract (every concrete detector):
 *
 *  - Bounded memory: fixed-size state plus O(cores), never
 *    O(simulated time).
 *  - Deterministic: no reads of the simulation's Rng (which would
 *    perturb the run), and no randomness of their own — the sketch's
 *    row hashes come from a fixed detector-local seed. Attaching a
 *    detector never changes channel physics: ticks only *read* chip
 *    state, so BER/TP metrics are identical with and without the bank.
 *
 * Two outputs per detector:
 *
 *  - A threshold-free, monotone *peak score* (score()): the maximum of
 *    the detection statistic over the run. ROC curves threshold this
 *    post-hoc, so one simulated trial serves every operating point and
 *    TPR/FPR are monotone in the threshold by construction.
 *  - Online alarms at the detector's own threshold: alarmCount() and
 *    firstAlarmTime() (time-to-detect), emitted through the
 *    measure/ -> exp/ metric pipeline via DetectorBank::metrics().
 */

#ifndef ICH_DETECT_DETECTOR_HH
#define ICH_DETECT_DETECTOR_HH

#include <memory>
#include <vector>

#include "common/ticker.hh"
#include "common/types.hh"
#include "exp/scenario.hh"

namespace ich
{

class Chip;

namespace detect
{

/** firstAlarmTime() when no alarm has fired. */
constexpr Time kNoAlarm = ~static_cast<Time>(0);

/** Observation sampling period every detector shares. */
constexpr Time kTickInterval = fromMicroseconds(20.0);

/**
 * Base class for online detectors. Subclasses implement observe() (one
 * sampling tick) and the state hooks; alarm bookkeeping and peak-score
 * tracking live here.
 */
class Detector : public Clocked
{
  public:
    explicit Detector(Chip &chip) : chip_(chip) {}

    /** Stable identifier used in metric names. */
    virtual const char *name() const = 0;

    /** Threshold-free peak detection statistic over the run so far. */
    double score() const { return peakScore_; }

    /** Alarms fired at the detector's threshold. */
    std::uint64_t alarmCount() const { return alarms_; }

    /** Absolute time of the first alarm, or kNoAlarm. */
    Time firstAlarmTime() const { return firstAlarm_; }

    /** Observation ticks delivered. */
    std::uint64_t samples() const { return samples_; }

    /** @name Clocked */
    ///@{
    void
    tick(Time now) override
    {
        ++samples_;
        observe(now);
    }
    ///@}

  protected:
    /** One observation at @p now (read-only chip access). */
    virtual void observe(Time now) = 0;

    /** Track the peak of the threshold-free statistic. */
    void
    notePeak(double s)
    {
        if (s > peakScore_)
            peakScore_ = s;
    }

    /**
     * Feed the alarm edge detector: @p above is "statistic at or over
     * the detector's threshold". Counts rising edges; records the
     * first alarm time.
     */
    void
    noteAlarmLevel(bool above, Time now)
    {
        if (above && !wasAbove_) {
            ++alarms_;
            if (firstAlarm_ == kNoAlarm)
                firstAlarm_ = now;
        }
        wasAbove_ = above;
    }

    Chip &chip_;

  private:
    std::uint64_t samples_ = 0;
    std::uint64_t alarms_ = 0;
    Time firstAlarm_ = kNoAlarm;
    double peakScore_ = 0.0;
    bool wasAbove_ = false;
};

/**
 * Owns the sketch, CUSUM and duty detectors and their shared Ticker
 * registration.
 *
 * The bank registers the three detectors with the chip's Ticker as
 * members of one rate group (kTickInterval), in that fixed order.
 */
class DetectorBank
{
  public:
    explicit DetectorBank(Chip &chip);
    ~DetectorBank();

    DetectorBank(const DetectorBank &) = delete;
    DetectorBank &operator=(const DetectorBank &) = delete;

    const Detector &detector(std::size_t i) const
    {
        return *detectors_.at(i);
    }

    /**
     * Alarm metrics for the exp/ pipeline:
     *   det_<name>_score, det_<name>_alarms, det_<name>_ttd_us
     * (ttd omitted while no alarm fired), plus det_samples.
     */
    exp::MetricMap metrics() const;

  private:
    Chip &chip_;
    std::vector<std::unique_ptr<Detector>> detectors_;
};

} // namespace detect
} // namespace ich

#endif // ICH_DETECT_DETECTOR_HH
