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
 * reset-on-alarm recursion at a fixed threshold.
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
    explicit CusumDetector(Chip &chip);

    const char *name() const override { return "cusum"; }

  protected:
    void observe(Time now) override;

  private:
    int warmupLeft_;
    double warmupSum_ = 0.0;
    double mu0_ = 0.0; ///< learned baseline mean power, watts
    // Resetting recursion (online alarms at the threshold).
    double sPos_ = 0.0;
    double sNeg_ = 0.0;
    // Non-resetting twin (threshold-free peak score for ROC).
    double freePos_ = 0.0;
    double freeNeg_ = 0.0;
};

} // namespace detect
} // namespace ich

#endif // ICH_DETECT_CUSUM_HH
