/**
 * @file
 * Receiver calibration: learn the per-label reading means from a
 * training sequence, then decode by nearest mean. CovertLink
 * (channels/channel.hh) calibrates all seven Fig. 12 contenders this
 * way: the IChannels label by 2-bit symbol (the L1..L4 ranges of
 * Figures 3 and 13), the four baselines by bit. The §6.5 instruction
 * spy labels by guardband level. A reading is a throttling period in µs
 * for the IChannels, the spy and NetSpectre, and a frequency in GHz for
 * TurboCC, DFScovert and PowerT; meanUs() and stddevUs() carry the
 * reading's unit. The paper reports its low-noise level ranges > 2 K TSC
 * cycles apart, where nearest-mean is equivalent to the threshold ranges
 * of Figure 3; fig13_tp_dist measures the simulated gaps.
 */

#ifndef ICH_CHANNELS_CALIBRATION_HH
#define ICH_CHANNELS_CALIBRATION_HH

#include <vector>

#include "channels/levels.hh"

namespace ich
{

/** Learned per-label TP statistics and the decode rule. */
class Calibration
{
  public:
    /**
     * Fit from training data: @p tp_us[i] was measured when label
     * @p labels[i] was sent. Every label in [0, @p num_labels) must
     * occur.
     */
    static Calibration fit(const std::vector<int> &labels,
                           const std::vector<double> &tp_us,
                           int num_labels = kNumSymbols);

    /**
     * Decode one measured TP to the label with the nearest mean; a tie
     * goes to the lower label.
     */
    int decode(double tp_us) const;

    double meanUs(int label) const { return means_.at(label); }
    double stddevUs(int label) const { return stddevs_.at(label); }

    /**
     * Smallest gap between adjacent label means (µs). Zero-ish means
     * the channel carries no information (e.g. under secure-mode).
     */
    double minSeparationUs() const;

  private:
    std::vector<double> means_;
    std::vector<double> stddevs_;
};

} // namespace ich

#endif // ICH_CHANNELS_CALIBRATION_HH
