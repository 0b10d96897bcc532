#include "channels/thread_channel.hh"

#include <stdexcept>

namespace ich
{

std::vector<double>
IccThreadCovert::runOnSimulation(Simulation &sim,
                                 const std::vector<InstClass> &sender,
                                 bool with_noise)
{
    // Sender and receiver interleave on core 0 / SMT 0 (Figure 3):
    //   wait(epoch_k); sender PHI loop of class sender[k];
    //   rdtsc; receiver 512b_Heavy probe; rdtsc.
    Program prog;
    for (std::size_t k = 0; k < sender.size(); ++k) {
        prog.waitUntilTsc(epochTsc(cfg_, k));
        prog.loop(sender[k], cfg_.senderIterations);
        prog.mark(static_cast<int>(2 * k));
        prog.loop(map_.threadProbe, cfg_.probeIterations);
        prog.mark(static_cast<int>(2 * k + 1));
    }

    HwThread &thr = sim.chip().core(0).thread(0);
    thr.setProgram(std::move(prog));

    Time horizon = fromMicroseconds(
        toMicroseconds(cfg_.period) * (sender.size() + 2));
    NoiseHandles noise;
    if (with_noise) {
        // The concurrent app time-shares the channel's core (via the
        // SMT sibling when present): its PHIs raise this core's
        // guardband level and mask the sender's symbols whenever the
        // app's level is higher (Fig. 14b error matrix).
        CoreId app_core = cfg_.chip.core.smtThreads > 1 ? 0 : 1;
        int app_smt = app_core == 0 ? 1 : 0;
        noise = attachNoise(sim, 0, 0, app_core, app_smt, horizon);
        scheduleBursts(sim, sender.size());
    }
    thr.start();
    sim.run(horizon);

    const auto &recs = thr.records();
    if (recs.size() != 2 * sender.size())
        throw std::logic_error("IccThreadCovert: missing records");
    std::vector<double> tp_us;
    tp_us.reserve(sender.size());
    for (std::size_t k = 0; k < sender.size(); ++k) {
        Time t0 = recs[2 * k].time;
        Time t1 = recs[2 * k + 1].time;
        tp_us.push_back(toMicroseconds(t1 - t0));
    }
    return tp_us;
}

} // namespace ich
