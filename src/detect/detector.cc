#include "detect/detector.hh"

#include "chip/chip.hh"
#include "detect/cusum.hh"
#include "detect/duty.hh"
#include "detect/sketch.hh"
#include "measure/daq.hh"

namespace ich
{
namespace detect
{

DetectorBank::DetectorBank(Chip &chip, const DetectConfig &cfg)
    : chip_(chip), cfg_(cfg)
{
    // Fixed construction order: detectors tick in registration order.
    if (cfg_.enableSketch)
        detectors_.push_back(std::make_unique<SketchDetector>(
            chip, cfg_.sketch, cfg_.tickInterval));
    if (cfg_.enableCusum)
        detectors_.push_back(
            std::make_unique<CusumDetector>(chip, cfg_.cusum));
    if (cfg_.enableDuty)
        detectors_.push_back(
            std::make_unique<DutyCycleDetector>(chip, cfg_.duty));
    TickRate rate{cfg_.tickInterval, 0, cfg_.tickPriority};
    for (auto &d : detectors_)
        chip.ticker().add(*d, rate);
}

DetectorBank::~DetectorBank()
{
    for (auto &d : detectors_)
        chip_.ticker().remove(*d);
}

Detector *
DetectorBank::find(const std::string &name)
{
    for (auto &d : detectors_)
        if (name == d->name())
            return d.get();
    return nullptr;
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

void
DetectorBank::addDaqChannels(Daq &daq) const
{
    for (const auto &d : detectors_) {
        Detector *dp = d.get();
        daq.addChannel(std::string("det_") + d->name() + "_stat",
                       [dp]() { return dp->statistic(); });
    }
}

} // namespace detect
} // namespace ich
