#include "baselines/netspectre.hh"

namespace ich
{

NetSpectre::NetSpectre(ChannelConfig cfg) : cfg_(std::move(cfg))
{
    // The NetSpectre gadget uses AVX2 (256-bit heavy) instructions.
    gadgetClass_ = InstClass::k256Heavy;
}

double
NetSpectre::ratedThroughputBps() const
{
    return 1.0 / toSeconds(cfg_.period);
}

std::vector<double>
NetSpectre::runBits(const std::vector<int> &bits)
{
    Simulation sim(pinnedChip(cfg_), cfg_.seed + (++runCounter_));

    Program prog;
    for (std::size_t k = 0; k < bits.size(); ++k) {
        prog.waitUntilTsc(epochTsc(cfg_, k));
        if (bits[k])
            prog.loop(gadgetClass_, cfg_.senderIterations);
        else
            prog.idle(fromMicroseconds(20.0));
        prog.mark(static_cast<int>(2 * k));
        prog.loop(gadgetClass_, cfg_.probeIterations);
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

void
NetSpectre::calibrate()
{
    std::vector<int> training;
    for (int r = 0; r < cfg_.calibrationRepeats; ++r) {
        training.push_back(0);
        training.push_back(1);
    }
    std::vector<double> us = runBits(training);
    double sum0 = 0.0, sum1 = 0.0;
    int n = cfg_.calibrationRepeats;
    for (int r = 0; r < n; ++r) {
        sum0 += us[2 * r];
        sum1 += us[2 * r + 1];
    }
    threshold_ = 0.5 * (sum0 / n + sum1 / n);
    calibrated_ = true;
}

TransmitResult
NetSpectre::transmit(const BitVec &bits)
{
    if (!calibrated_)
        calibrate();

    std::vector<int> tx_bits(bits.begin(), bits.end());
    std::vector<double> us = runBits(tx_bits);

    TransmitResult res;
    res.sentBits = bits;
    for (double u : us) {
        // Probe faster than threshold => rail was ramped => bit 1.
        res.receivedBits.push_back(u < threshold_ ? 1 : 0);
        res.tpUs.push_back(u);
    }
    res.score(bits.size() * toSeconds(cfg_.period));
    return res;
}

} // namespace ich
