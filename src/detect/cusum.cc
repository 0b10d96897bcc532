#include "detect/cusum.hh"

#include <algorithm>

#include "chip/chip.hh"

namespace ich
{
namespace detect
{

CusumDetector::CusumDetector(Chip &chip, const CusumParams &p)
    : Detector(chip), params_(p), warmupLeft_(std::max(1, p.warmupTicks))
{
}

double
CusumDetector::statistic() const
{
    return std::max(freePos_, freeNeg_);
}

void
CusumDetector::observe(Time now)
{
    double p = chip_.powerWatts();
    if (warmupLeft_ > 0) {
        warmupSum_ += p;
        if (--warmupLeft_ == 0)
            mu0_ = warmupSum_ / params_.warmupTicks;
        return;
    }
    double k = params_.driftWatts;
    sPos_ = std::max(0.0, sPos_ + (p - mu0_ - k));
    sNeg_ = std::max(0.0, sNeg_ + (mu0_ - p - k));
    freePos_ = std::max(0.0, freePos_ + (p - mu0_ - k));
    freeNeg_ = std::max(0.0, freeNeg_ + (mu0_ - p - k));
    notePeak(std::max(freePos_, freeNeg_));
    bool above = std::max(sPos_, sNeg_) >= params_.threshold;
    noteAlarmLevel(above, now);
    if (above) {
        // Classic CUSUM restart after an alarm.
        sPos_ = 0.0;
        sNeg_ = 0.0;
    }
}

} // namespace detect
} // namespace ich
