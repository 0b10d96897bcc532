#include "detect/cusum.hh"

#include <algorithm>

#include "chip/chip.hh"

namespace ich
{
namespace detect
{

namespace
{
/** Allowed drift (slack) around the learned baseline, watts. */
constexpr double kDriftWatts = 0.75;
/** Alarm threshold h on the CUSUM statistic, watt-ticks. */
constexpr double kThreshold = 1.5;
/** Ticks used to learn the baseline mean power. */
constexpr int kWarmupTicks = 64;
} // namespace

CusumDetector::CusumDetector(Chip &chip)
    : Detector(chip), warmupLeft_(kWarmupTicks)
{
}

void
CusumDetector::observe(Time now)
{
    double p = chip_.powerWatts();
    if (warmupLeft_ > 0) {
        warmupSum_ += p;
        if (--warmupLeft_ == 0)
            mu0_ = warmupSum_ / kWarmupTicks;
        return;
    }
    double k = kDriftWatts;
    sPos_ = std::max(0.0, sPos_ + (p - mu0_ - k));
    sNeg_ = std::max(0.0, sNeg_ + (mu0_ - p - k));
    freePos_ = std::max(0.0, freePos_ + (p - mu0_ - k));
    freeNeg_ = std::max(0.0, freeNeg_ + (mu0_ - p - k));
    notePeak(std::max(freePos_, freeNeg_));
    bool above = std::max(sPos_, sNeg_) >= kThreshold;
    noteAlarmLevel(above, now);
    if (above) {
        // Classic CUSUM restart after an alarm.
        sPos_ = 0.0;
        sNeg_ = 0.0;
    }
}

} // namespace detect
} // namespace ich
