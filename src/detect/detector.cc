#include "detect/detector.hh"

#include "chip/chip.hh"
#include "detect/cusum.hh"
#include "detect/duty.hh"
#include "detect/sketch.hh"

namespace ich
{
namespace detect
{

namespace
{
/**
 * Tick priority: high, so detectors observe chip state *after* any
 * same-timestamp housekeeping has applied.
 */
constexpr int kTickPriority = 1000;
} // namespace

DetectorBank::DetectorBank(Chip &chip) : chip_(chip)
{
    // Fixed construction order: detectors tick in registration order.
    detectors_.push_back(std::make_unique<SketchDetector>(chip));
    detectors_.push_back(std::make_unique<CusumDetector>(chip));
    detectors_.push_back(std::make_unique<DutyCycleDetector>(chip));
    TickRate rate{kTickInterval, 0, kTickPriority};
    for (auto &d : detectors_)
        chip.ticker().add(*d, rate);
}

DetectorBank::~DetectorBank()
{
    for (auto &d : detectors_)
        chip_.ticker().remove(*d);
}

exp::MetricMap
DetectorBank::metrics() const
{
    exp::MetricMap m;
    std::uint64_t samples = 0;
    for (const auto &d : detectors_) {
        std::string base = std::string("det_") + d->name();
        m[base + "_score"] = d->score();
        m[base + "_alarms"] = static_cast<double>(d->alarmCount());
        if (d->firstAlarmTime() != kNoAlarm)
            m[base + "_ttd_us"] = toMicroseconds(d->firstAlarmTime());
        samples = d->samples(); // same tick group: identical per detector
    }
    m["det_samples"] = static_cast<double>(samples);
    return m;
}

} // namespace detect
} // namespace ich
