/**
 * @file
 * Shared receiver for the frequency-modulation baseline channels
 * (TurboCC, DFScovert, PowerT): a thread on core 1 times a chunked 64b
 * loop to estimate the chip clock frequency while the sender runs on
 * core 0, and each bit decodes from the mean frequency inside a window
 * of its bit time.
 */

#ifndef ICH_BASELINES_FREQ_RECEIVER_HH
#define ICH_BASELINES_FREQ_RECEIVER_HH

#include <vector>

#include "chip/simulation.hh"
#include "isa/program.hh"

namespace ich
{
namespace baselines
{

constexpr int kFreqRxUnroll = 20;
/** Receiver loop iterations per timestamped chunk. */
constexpr std::uint64_t kFreqRxChunkIterations = 2000;

/**
 * Mean observed frequency (GHz) over [t_lo_us, t_hi_us], estimated from
 * chunk latencies. Returns 0 when no chunk falls in the window.
 */
inline double
meanFreqInWindow(const std::vector<Record> &recs, double t_lo_us,
                 double t_hi_us)
{
    double iter_cycles = makeKernel(InstClass::kScalar64, 1, kFreqRxUnroll)
                             .cyclesPerIteration();
    double chunk_cycles = iter_cycles * kFreqRxChunkIterations;
    double sum_ghz = 0.0;
    int n = 0;
    for (std::size_t i = 1; i < recs.size(); ++i) {
        double start_us = toMicroseconds(recs[i - 1].time);
        if (start_us < t_lo_us || start_us >= t_hi_us)
            continue;
        double chunk_us = toMicroseconds(recs[i].time - recs[i - 1].time);
        if (chunk_us <= 0.0)
            continue;
        sum_ghz += chunk_cycles / (chunk_us * 1000.0);
        ++n;
    }
    return n > 0 ? sum_ghz / n : 0.0;
}

/**
 * Run sender program @p tx (core 0) against the timing receiver (core
 * 1) on @p sim for @p n_bits bits of @p bit_us each, the first starting
 * at TSC @p first. The receiver's loop is sized at @p nominal_freq_ghz.
 * Returns each bit's mean frequency over the fraction
 * [window_lo, window_hi) of its bit time.
 */
inline std::vector<double>
runFreqReceiver(Simulation &sim, Program tx, std::size_t n_bits,
                double bit_us, Cycles first, double nominal_freq_ghz,
                double window_lo, double window_hi)
{
    double total_us = bit_us * (n_bits + 2) + 200.0;
    double iter_cycles = makeKernel(InstClass::kScalar64, 1, kFreqRxUnroll)
                             .cyclesPerIteration();
    double iter_us = iter_cycles * cyclePicos(nominal_freq_ghz) * 1e-6;
    auto iters = static_cast<std::uint64_t>(total_us / iter_us) + 1000;
    Program rx;
    rx.loopChunked(InstClass::kScalar64, iters, kFreqRxChunkIterations,
                   /*tag=*/0, kFreqRxUnroll);

    HwThread &tx_thr = sim.chip().core(0).thread(0);
    HwThread &rx_thr = sim.chip().core(1).thread(0);
    tx_thr.setProgram(std::move(tx));
    rx_thr.setProgram(std::move(rx));
    rx_thr.start();
    tx_thr.start();
    sim.run(fromMicroseconds(total_us));

    double first_us = toMicroseconds(sim.chip().tscToTime(first));
    std::vector<double> ghz;
    for (std::size_t k = 0; k < n_bits; ++k) {
        double lo = first_us + bit_us * (k + window_lo);
        double hi = first_us + bit_us * (k + window_hi);
        ghz.push_back(meanFreqInWindow(rx_thr.records(), lo, hi));
    }
    return ghz;
}

} // namespace baselines
} // namespace ich

#endif // ICH_BASELINES_FREQ_RECEIVER_HH
