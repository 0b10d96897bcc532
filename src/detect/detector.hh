/**
 * @file
 * Online covert-channel detection subsystem (ROADMAP item 4).
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
 *  - Bounded memory: state is O(config), never O(simulated time).
 *  - Deterministic: no reads of the simulation's Rng (which would
 *    perturb the run) — a detector needing randomness (Nitrosketch
 *    sampling) derives it from its own config seed. Attaching a
 *    detector never changes channel physics: ticks only *read* chip
 *    state, so BER/TP metrics are identical with and without the bank.
 *
 * Two outputs per detector:
 *
 *  - A threshold-free, monotone *peak score* (score()): the maximum of
 *    the detection statistic over the run. ROC curves threshold this
 *    post-hoc, so one simulated trial serves every operating point and
 *    TPR/FPR are monotone in the threshold by construction.
 *  - Online alarms at the *configured* threshold: alarmCount() and
 *    firstAlarmTime() (time-to-detect), emitted through the
 *    measure/ -> exp/ metric pipeline via DetectorBank::metrics().
 */

#ifndef ICH_DETECT_DETECTOR_HH
#define ICH_DETECT_DETECTOR_HH

#include <memory>
#include <string>
#include <vector>

#include "common/ticker.hh"
#include "common/types.hh"
#include "exp/scenario.hh"

namespace ich
{

class Chip;
class Daq;

namespace detect
{

/** firstAlarmTime() when no alarm has fired. */
constexpr Time kNoAlarm = ~static_cast<Time>(0);

/** Count-min / Nitrosketch-style periodicity detector parameters. */
struct SketchParams {
    int depth = 4;    ///< hash rows
    int width = 512;  ///< counters per row
    /**
     * Nitrosketch idiom: update each row independently with this
     * probability, adding 1/p — bounded update cost at line rate. 1.0
     * == exact count-min.
     */
    double rowSampleProb = 1.0;
    /** Hash/sampling seed (detector-local; never the sim Rng). */
    std::uint64_t seed = 0x1CEB00DAULL;
    /** Alarm when the heaviest key's share of updates reaches this. */
    double threshold = 0.20;
    /** Updates required before the dominance score is meaningful. */
    int minUpdates = 48;
};

/** CUSUM change-point parameters (RAPL-window package power). */
struct CusumParams {
    /** Allowed drift (slack) around the learned baseline, watts. */
    double driftWatts = 0.75;
    /** Alarm threshold h on the CUSUM statistic, watt-ticks. */
    double threshold = 1.5;
    /** Ticks used to learn the baseline mean power. */
    int warmupTicks = 64;
};

/** Throttle duty-cycle residency parameters. */
struct DutyParams {
    int windowTicks = 64;
    /** Alarm when a window's worst per-core residency reaches this. */
    double threshold = 0.12;
};

/** Bank-level configuration. */
struct DetectConfig {
    /** Observation sampling period (all detectors share one rate). */
    Time tickInterval = fromMicroseconds(20.0);
    /**
     * Tick priority: high, so detectors observe chip state *after*
     * any same-timestamp housekeeping has applied.
     */
    int tickPriority = 1000;
    bool enableSketch = true;
    bool enableCusum = true;
    bool enableDuty = true;
    SketchParams sketch;
    CusumParams cusum;
    DutyParams duty;
};

/**
 * Base class for online detectors. Subclasses implement observe() (one
 * sampling tick) and the state hooks; alarm bookkeeping and peak-score
 * tracking live here.
 */
class Detector : public Clocked
{
  public:
    explicit Detector(Chip &chip) : chip_(chip) {}

    /** Stable identifier used in metric names and archive sections. */
    virtual const char *name() const = 0;

    /** Threshold-free peak detection statistic over the run so far. */
    double score() const { return peakScore_; }

    /** Alarms fired at the configured threshold. */
    std::uint64_t alarmCount() const { return alarms_; }

    /** Absolute time of the first alarm, or kNoAlarm. */
    Time firstAlarmTime() const { return firstAlarm_; }

    /** Observation ticks delivered. */
    std::uint64_t samples() const { return samples_; }

    /** Current (instantaneous) statistic — Daq probe / figures. */
    virtual double statistic() const = 0;

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
     * the configured threshold". Counts rising edges; records the
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
 * Owns one set of detectors and their shared Ticker registration.
 *
 * The bank registers every enabled detector with the chip's Ticker as
 * members of one rate group, in a fixed order.
 */
class DetectorBank
{
  public:
    DetectorBank(Chip &chip, const DetectConfig &cfg);
    ~DetectorBank();

    DetectorBank(const DetectorBank &) = delete;
    DetectorBank &operator=(const DetectorBank &) = delete;

    const DetectConfig &config() const { return cfg_; }

    std::size_t size() const { return detectors_.size(); }
    Detector &detector(std::size_t i) { return *detectors_.at(i); }
    const Detector &detector(std::size_t i) const
    {
        return *detectors_.at(i);
    }

    /** Look up by Detector::name(); nullptr when absent/disabled. */
    Detector *find(const std::string &name);

    /**
     * Alarm metrics for the exp/ pipeline:
     *   det_<name>_score, det_<name>_alarms, det_<name>_ttd_us
     * (ttd omitted while no alarm fired), plus det_samples.
     */
    exp::MetricMap metrics() const;

    /** Register one Daq channel per detector ("det_<name>_stat"). */
    void addDaqChannels(Daq &daq) const;

  private:
    Chip &chip_;
    DetectConfig cfg_;
    std::vector<std::unique_ptr<Detector>> detectors_;
};

} // namespace detect
} // namespace ich

#endif // ICH_DETECT_DETECTOR_HH
