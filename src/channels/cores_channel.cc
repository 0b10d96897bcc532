#include "channels/cores_channel.hh"

#include <stdexcept>

namespace ich
{

IccCoresCovert::IccCoresCovert(ChannelConfig cfg)
    : CovertChannel(std::move(cfg))
{
    if (cfg_.chip.numCores < 2)
        throw std::invalid_argument(
            "IccCoresCovert requires at least two cores");
}

std::vector<double>
IccCoresCovert::runOnSimulation(Simulation &sim,
                                const std::vector<InstClass> &sender,
                                bool with_noise)
{
    // Sender: core 0 / SMT 0; Receiver: core 1 / SMT 0. Both busy-wait
    // on rdtsc for their epoch (§4.3.3); the receiver starts a few
    // hundred cycles after the sender so its voltage request queues
    // behind the sender's on the SVID bus.
    double delay_cycles = static_cast<double>(cfg_.coresReceiverDelay) *
                          cfg_.chip.tscGhz / 1000.0;

    Program tx;
    Program rx;
    for (std::size_t k = 0; k < sender.size(); ++k) {
        Cycles epoch = epochTsc(cfg_, k);
        tx.waitUntilTsc(epoch);
        tx.loop(sender[k], cfg_.senderIterations);

        rx.waitUntilTsc(epoch + static_cast<Cycles>(delay_cycles));
        rx.mark(static_cast<int>(2 * k));
        rx.loop(map_.coresProbe, cfg_.probeIterations);
        rx.mark(static_cast<int>(2 * k + 1));
    }

    HwThread &tx_thr = sim.chip().core(0).thread(0);
    HwThread &rx_thr = sim.chip().core(1).thread(0);
    tx_thr.setProgram(std::move(tx));
    rx_thr.setProgram(std::move(rx));

    Time horizon = fromMicroseconds(
        toMicroseconds(cfg_.period) * (sender.size() + 2));
    NoiseHandles noise;
    if (with_noise) {
        // App noise shares the sender's core via its SMT sibling when
        // available, else time-multiplexes on the receiver core.
        int app_core = cfg_.chip.core.smtThreads > 1 ? 0 : 1;
        int app_smt = cfg_.chip.core.smtThreads > 1 ? 1 : 0;
        noise = attachNoise(sim, 1, 0, app_core, app_smt, horizon);
    }
    tx_thr.start();
    rx_thr.start();
    sim.run(horizon);

    const auto &recs = rx_thr.records();
    if (recs.size() != 2 * sender.size())
        throw std::logic_error("IccCoresCovert: missing records");
    std::vector<double> tp_us;
    tp_us.reserve(sender.size());
    for (std::size_t k = 0; k < sender.size(); ++k)
        tp_us.push_back(
            toMicroseconds(recs[2 * k + 1].time - recs[2 * k].time));
    return tp_us;
}

} // namespace ich
