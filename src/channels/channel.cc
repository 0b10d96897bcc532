#include "channels/channel.hh"

#include <algorithm>
#include <stdexcept>

#include "channels/cores_channel.hh"
#include "channels/smt_channel.hh"
#include "channels/thread_channel.hh"

namespace ich
{

namespace
{
/** Offset of the per-transaction burst into each transaction window. */
constexpr Time kBurstOffset = fromMicroseconds(8.0);
/** Burst length (a few microseconds of PHI execution). */
constexpr Time kBurstDuration = fromMicroseconds(4.0);
/** The burst runs on the SMT sibling of the channel's core. */
constexpr CoreId kBurstCore = 0;
constexpr int kBurstSmt = 1;
} // namespace

const char *
toString(ChannelKind kind)
{
    switch (kind) {
      case ChannelKind::kThread:
        return "IccThreadCovert";
      case ChannelKind::kSmt:
        return "IccSMTcovert";
      case ChannelKind::kCores:
        return "IccCoresCovert";
    }
    return "?";
}

std::unique_ptr<CovertChannel>
makeChannel(ChannelKind kind, const ChannelConfig &cfg)
{
    switch (kind) {
      case ChannelKind::kThread:
        return std::make_unique<IccThreadCovert>(cfg);
      case ChannelKind::kSmt:
        return std::make_unique<IccSMTcovert>(cfg);
      case ChannelKind::kCores:
        return std::make_unique<IccCoresCovert>(cfg);
    }
    throw std::invalid_argument("makeChannel: unknown ChannelKind");
}

ChipConfig
pinnedChip(const ChannelConfig &cfg)
{
    ChipConfig chip = cfg.chip;
    chip.pmu.governor.policy = GovernorPolicy::kUserspace;
    chip.pmu.governor.userspaceGhz = cfg.freqGhz;
    return chip;
}

Cycles
epochTsc(const ChannelConfig &cfg, std::size_t k)
{
    auto first = static_cast<Cycles>(50.0 * cfg.chip.tscGhz * 1e3);
    double period_cycles =
        static_cast<double>(cfg.period) * cfg.chip.tscGhz / 1000.0;
    return first +
           static_cast<Cycles>(period_cycles * static_cast<double>(k));
}

CovertLink::CovertLink(int bits_per_label, int training_repeats,
                       Time period)
    : bitsPerLabel_(bits_per_label), trainingRepeats_(training_repeats),
      period_(period)
{
}

double
CovertLink::ratedThroughputBps() const
{
    return bitsPerLabel_ / toSeconds(period_);
}

const Calibration &
CovertLink::calibration()
{
    if (!calibration_) {
        int num_labels = 1 << bitsPerLabel_;
        std::vector<int> training;
        for (int r = 0; r < trainingRepeats_; ++r)
            for (int s = 0; s < num_labels; ++s)
                training.push_back(s);
        std::vector<double> readings = measure(training, /*with_noise=*/false);
        calibration_ = Calibration::fit(training, readings, num_labels);
    }
    return *calibration_;
}

TransmitResult
CovertLink::transmit(const BitVec &bits)
{
    TransmitResult res;
    res.sentBits = bits;

    // Pack bits LSB-first into labels (the last one zero-padded).
    for (std::size_t i = 0; i < bits.size(); i += bitsPerLabel_) {
        int label = 0;
        for (int b = 0; b < bitsPerLabel_ && i + b < bits.size(); ++b)
            label |= (bits[i + b] & 1) << b;
        res.symbolsSent.push_back(label);
    }

    const Calibration &cal = calibration();
    res.tpUs = measure(res.symbolsSent, /*with_noise=*/true);
    if (res.tpUs.size() != res.symbolsSent.size())
        throw std::logic_error("CovertLink: reading count mismatch");

    for (double reading : res.tpUs) {
        int label = cal.decode(reading);
        res.symbolsReceived.push_back(label);
        for (int b = 0; b < bitsPerLabel_; ++b)
            res.receivedBits.push_back(
                static_cast<std::uint8_t>((label >> b) & 1));
    }
    res.receivedBits.resize(bits.size());

    res.bitErrors = hammingDistance(res.sentBits, res.receivedBits);
    res.ber = bits.empty()
                  ? 0.0
                  : static_cast<double>(res.bitErrors) / bits.size();
    res.seconds = res.symbolsSent.size() * toSeconds(period_);
    res.throughputBps = res.seconds > 0.0 ? bits.size() / res.seconds : 0.0;
    return res;
}

CovertChannel::CovertChannel(ChannelConfig cfg)
    : CovertLink(kBitsPerSymbol, ChannelConfig::calibrationRepeats,
                 cfg.period),
      cfg_(std::move(cfg)), map_(symbolMapFor(cfg_.chip))
{
}

CovertChannel::NoiseHandles
CovertChannel::attachNoise(Simulation &sim, CoreId rx_core, int rx_smt,
                           CoreId app_core, int app_smt, Time until) const
{
    NoiseHandles handles;
    if (cfg_.noise.interruptRatePerSec > 0.0 ||
        cfg_.noise.contextSwitchRatePerSec > 0.0) {
        handles.injector = std::make_unique<NoiseInjector>(
            sim.chip(), sim.rng(), cfg_.noise, rx_core, rx_smt);
        handles.injector->start(until);
    }
    if (cfg_.app.phiRatePerSec > 0.0) {
        handles.app = std::make_unique<PhiApp>(sim.chip(), sim.rng(),
                                               cfg_.app, app_core,
                                               app_smt);
        handles.app->start(until);
    }
    return handles;
}

void
CovertChannel::scheduleBursts(Simulation &sim,
                              std::size_t n_symbols) const
{
    if (!cfg_.burst.enabled)
        return;
    Chip *chip = &sim.chip();
    // Two events per transmitted symbol — the per-trial hot path.
    for (std::size_t k = 0; k < n_symbols; ++k) {
        Time when = chip->tscToTime(epochTsc(cfg_, k)) + kBurstOffset;
        sim.eq().scheduleChecked(when, [this, chip] {
            chip->phiStarted(kBurstCore, kBurstSmt, cfg_.burst.cls);
            chip->eventQueue().scheduleInChecked(
                kBurstDuration, [this, chip] {
                    chip->kernelEnded(kBurstCore, kBurstSmt,
                                      cfg_.burst.cls);
                });
        });
    }
}

std::vector<double>
CovertChannel::runSymbols(const std::vector<int> &symbols, bool with_noise)
{
    std::vector<InstClass> sender;
    sender.reserve(symbols.size());
    for (int s : symbols)
        sender.push_back(map_.symbolClasses.at(s));
    return runClasses(sender, with_noise);
}

std::vector<double>
CovertChannel::runClasses(const std::vector<InstClass> &sender,
                          bool with_noise)
{
    if (sender.empty())
        return {};
    Simulation sim(pinnedChip(cfg_), cfg_.seed + (++runCounter_));
    if (simHooks_.onStart)
        simHooks_.onStart(sim);
    std::vector<double> tp = runOnSimulation(sim, sender, with_noise);
    if (simHooks_.onFinish)
        simHooks_.onFinish(sim);
    return tp;
}

} // namespace ich
