#include "channels/spy.hh"

#include <stdexcept>

namespace ich
{

namespace
{
/** Training transactions per guardband level. */
constexpr int kCalibrationRepeats = 6;
} // namespace

InstructionSpy::InstructionSpy(const ChannelConfig &cfg,
                               ChannelKind vantage)
{
    if (vantage == ChannelKind::kThread)
        throw std::invalid_argument(
            "InstructionSpy: vantage must be kSmt or kCores");
    channel_ = makeChannel(vantage, cfg);
}

SpyResult
InstructionSpy::observe(const std::vector<InstClass> &victim_sequence)
{
    if (!calibration_) {
        // One representative class per guardband level, several repeats.
        std::vector<InstClass> reps;
        for (auto cls : kAllInstClasses)
            if (static_cast<std::size_t>(traits(cls).guardbandLevel) >=
                reps.size())
                reps.push_back(cls);
        std::vector<InstClass> training;
        std::vector<int> levels;
        for (int r = 0; r < kCalibrationRepeats; ++r) {
            for (auto cls : reps) {
                training.push_back(cls);
                levels.push_back(traits(cls).guardbandLevel);
            }
        }
        calibration_ = Calibration::fit(
            levels, channel_->runClasses(training, /*with_noise=*/false),
            numGuardbandLevels());
    }

    SpyResult res;
    res.victimClasses = victim_sequence;
    std::vector<double> tp =
        channel_->runClasses(victim_sequence, /*with_noise=*/false);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < victim_sequence.size(); ++i) {
        int actual = traits(victim_sequence[i]).guardbandLevel;
        int inferred = calibration_->decode(tp[i]);
        res.actualLevels.push_back(actual);
        res.inferredLevels.push_back(inferred);
        if (inferred == actual)
            ++correct;
    }
    res.levelAccuracy = victim_sequence.empty()
                            ? 0.0
                            : static_cast<double>(correct) /
                                  victim_sequence.size();
    return res;
}

} // namespace ich
