#include "channels/smt_channel.hh"

#include <cmath>
#include <stdexcept>

namespace ich
{

namespace
{
/** Receiver decode window after each epoch. */
constexpr double kWindowUs = 60.0;
/** Unroll of the receiver's 64b chunked loop. */
constexpr int kRxUnroll = 20;
} // namespace

IccSMTcovert::IccSMTcovert(ChannelConfig cfg)
    : CovertChannel(std::move(cfg))
{
    if (cfg_.chip.core.smtThreads < 2)
        throw std::invalid_argument(
            "IccSMTcovert requires an SMT-capable chip preset");
}

std::vector<double>
IccSMTcovert::runOnSimulation(Simulation &sim,
                              const std::vector<InstClass> &sender,
                              bool with_noise)
{
    // Sender: core 0 / SMT 0; Receiver: core 0 / SMT 1.
    Program tx;
    for (std::size_t k = 0; k < sender.size(); ++k) {
        tx.waitUntilTsc(epochTsc(cfg_, k));
        tx.loop(sender[k], cfg_.senderIterations);
    }

    // Receiver runs one continuous chunked 64b loop spanning the whole
    // transmission, timestamping every chunk.
    double iter_cycles =
        makeKernel(map_.smtProbe, 1, kRxUnroll).cyclesPerIteration();
    double iter_us = iter_cycles * cyclePicos(cfg_.freqGhz) * 1e-6;
    double total_us =
        toMicroseconds(cfg_.period) * (sender.size() + 1) + 100.0;
    auto total_iters =
        static_cast<std::uint64_t>(std::ceil(total_us / iter_us));

    Program rx;
    rx.loopChunked(map_.smtProbe, total_iters, cfg_.smtChunkIterations,
                   /*tag=*/0, kRxUnroll);

    HwThread &tx_thr = sim.chip().core(0).thread(0);
    HwThread &rx_thr = sim.chip().core(0).thread(1);
    tx_thr.setProgram(std::move(tx));
    rx_thr.setProgram(std::move(rx));

    Time horizon = fromMicroseconds(total_us + 100.0);
    NoiseHandles noise;
    if (with_noise) {
        CoreId app_core = sim.chip().coreCount() > 1 ? 1 : 0;
        noise = attachNoise(sim, 0, 1, app_core, 0, horizon);
    }
    rx_thr.start();
    tx_thr.start();
    sim.run(horizon);

    // Decode: sum of chunk-latency excess (over the nominal chunk time)
    // within each epoch's window ≈ 3/4 of the sender's TP.
    double nominal_chunk_us =
        cfg_.smtChunkIterations * iter_us * 1.001;
    double first_epoch_us =
        toMicroseconds(sim.chip().tscToTime(epochTsc(cfg_, 0)));
    double period_us = toMicroseconds(cfg_.period);
    const auto &recs = rx_thr.records();
    std::vector<double> tp_us(sender.size(), 0.0);
    Time prev = 0;
    bool have_prev = false;
    for (const auto &rec : recs) {
        if (have_prev) {
            double chunk_us = toMicroseconds(rec.time - prev);
            double excess = chunk_us - nominal_chunk_us;
            if (excess > 0.0) {
                // Attribute the excess to the epoch whose window covers
                // the chunk's *start*.
                double start_us = toMicroseconds(prev);
                double rel = start_us - first_epoch_us + 2.0;
                if (rel >= 0.0) {
                    auto k = static_cast<std::size_t>(rel / period_us);
                    double into = rel - k * period_us;
                    if (k < sender.size() && into < kWindowUs + 2.0)
                        tp_us[k] += excess;
                }
            }
        }
        prev = rec.time;
        have_prev = true;
    }
    return tp_us;
}

} // namespace ich
