/**
 * @file
 * Shared receiver for the frequency-modulation baseline channels
 * (TurboCC, DFScovert, PowerT): a thread on core 1 times a chunked 64b
 * loop to estimate the chip clock frequency while the sender runs on
 * core 0, and each bit reads as the mean frequency inside a window of
 * its bit time. The bit-epoch schedule lives here too, so the three
 * channels differ only in what their sender does for each bit.
 */

#ifndef ICH_BASELINES_FREQ_RECEIVER_HH
#define ICH_BASELINES_FREQ_RECEIVER_HH

#include <functional>
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
 * Send @p bits from core 0, one per @p bit_time starting 100 µs into
 * the run, against the timing receiver on core 1. At each bit's epoch
 * the sender program waits for the TSC and then @p send_bit appends
 * that bit's action. The receiver's loop is sized at
 * @p nominal_freq_ghz. Returns each bit's mean frequency over the
 * fraction [window_lo, window_hi) of its bit time.
 */
inline std::vector<double>
runFreqReceiver(Simulation &sim, const std::vector<int> &bits,
                Time bit_time, double nominal_freq_ghz, double window_lo,
                double window_hi,
                const std::function<void(Program &, int)> &send_bit)
{
    double bit_us = toMicroseconds(bit_time);
    double tsc_ghz = sim.chip().tscGhz();
    Cycles first = static_cast<Cycles>(100.0 * tsc_ghz * 1e3);
    double bit_tsc = bit_us * tsc_ghz * 1000.0;
    Program tx;
    for (std::size_t k = 0; k < bits.size(); ++k) {
        tx.waitUntilTsc(first + static_cast<Cycles>(bit_tsc * k));
        send_bit(tx, bits[k]);
    }

    double total_us = bit_us * (bits.size() + 2) + 200.0;
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
    for (std::size_t k = 0; k < bits.size(); ++k) {
        double lo = first_us + bit_us * (k + window_lo);
        double hi = first_us + bit_us * (k + window_hi);
        ghz.push_back(meanFreqInWindow(rx_thr.records(), lo, hi));
    }
    return ghz;
}

} // namespace baselines
} // namespace ich

#endif // ICH_BASELINES_FREQ_RECEIVER_HH
