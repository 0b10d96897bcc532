/**
 * @file
 * CUSUM change-point detector on RAPL-window package power.
 *
 * A covert channel modulates the shared rail: every transaction's PHI
 * burst lifts package power above the tenant mix's baseline in a
 * sustained, repeating pattern. The detector learns the baseline mean
 * over a warmup window, then runs a two-sided CUSUM on the per-tick
 * power samples: S+ accrues excursions above (baseline + drift), S-
 * below (baseline - drift). The threshold-free peak statistic is the
 * largest S value reached (never reset), so post-hoc ROC thresholding
 * stays monotone; the online alarm path uses the classic
 * reset-on-alarm recursion at the configured threshold.
 */

#ifndef ICH_DETECT_CUSUM_HH
#define ICH_DETECT_CUSUM_HH

#include "detect/detector.hh"

namespace ich
{
namespace detect
{

class CusumDetector final : public Detector
{
  public:
    CusumDetector(Chip &chip, const CusumParams &p);

    const char *name() const override { return "cusum"; }

    /** max(S+, S-) of the non-resetting statistic, watt-ticks. */
    double statistic() const override;

    double baselineWatts() const { return mu0_; }
    bool warmedUp() const { return warmupLeft_ == 0; }

  protected:
    void observe(Time now) override;

  private:
    CusumParams params_;
    int warmupLeft_;
    double warmupSum_ = 0.0;
    double mu0_ = 0.0; ///< learned baseline mean power, watts
    // Resetting recursion (online alarms at the configured threshold).
    double sPos_ = 0.0;
    double sNeg_ = 0.0;
    // Non-resetting twin (threshold-free peak score for ROC).
    double freePos_ = 0.0;
    double freeNeg_ = 0.0;
};

} // namespace detect
} // namespace ich

#endif // ICH_DETECT_CUSUM_HH
