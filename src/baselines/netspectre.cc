#include "baselines/netspectre.hh"

namespace ich
{

namespace
{
/** The NetSpectre gadget uses AVX2 (256-bit heavy) instructions. */
constexpr InstClass kGadgetClass = InstClass::k256Heavy;
} // namespace

NetSpectre::NetSpectre(ChannelConfig cfg)
    : CovertLink(1, ChannelConfig::calibrationRepeats, cfg.period,
                 cfg.seed),
      cfg_(std::move(cfg))
{
}

std::vector<double>
NetSpectre::measure(const std::vector<int> &bits, bool /*with_noise*/)
{
    Simulation sim(pinnedChip(cfg_), nextRunSeed());

    Program prog;
    for (std::size_t k = 0; k < bits.size(); ++k) {
        prog.waitUntilTsc(epochTsc(cfg_, k));
        if (bits[k])
            prog.loop(kGadgetClass, cfg_.senderIterations);
        else
            prog.idle(fromMicroseconds(20.0));
        prog.mark(static_cast<int>(2 * k));
        prog.loop(kGadgetClass, cfg_.probeIterations);
        prog.mark(static_cast<int>(2 * k + 1));
    }

    HwThread &thr = sim.chip().core(0).thread(0);
    thr.setProgram(std::move(prog));
    thr.start();
    sim.run(fromMicroseconds(toMicroseconds(cfg_.period) *
                             (bits.size() + 2)));

    const auto &recs = thr.records();
    std::vector<double> us;
    for (std::size_t k = 0; k < bits.size(); ++k)
        us.push_back(
            toMicroseconds(recs.at(2 * k + 1).time -
                           recs.at(2 * k).time));
    return us;
}

} // namespace ich
