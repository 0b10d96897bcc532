/**
 * @file
 * Electrical design limits and the chip power/current projection model
 * (paper §2 "Voltage and Current Limit Protection", §5.3).
 *
 * Exceeding Iccmax can damage the VR or the chip; exceeding Vccmax is out
 * of spec. The PMU therefore reduces frequency so that the projected rail
 * voltage (with guardbands) and projected current stay within limits —
 * this, not thermals, is what slows AVX2/AVX-512 code at Turbo (Key
 * Conclusion 2).
 */

#ifndef ICH_PMU_LIMITS_HH
#define ICH_PMU_LIMITS_HH

#include <vector>

#include "pmu/guardband.hh"

namespace ich
{

/** Maximum-rating limits of the VR / package. */
struct ElectricalLimits {
    double vccMaxVolts = 1.27;
    double iccMaxAmps = 100.0;
};

/** Instantaneous per-core activity snapshot for projections. */
struct CoreActivity {
    bool active = false;   ///< executing instructions (clocks ungated)
    double cdynNf = 0.0;   ///< instantaneous dynamic capacitance
    int gbLevel = 0;       ///< granted/pending guardband level
    /** Highest guardband level among classes executing right now. */
    int activeGbLevel = 0;

    bool
    operator==(const CoreActivity &o) const
    {
        return active == o.active && cdynNf == o.cdynNf &&
               gbLevel == o.gbLevel && activeGbLevel == o.activeGbLevel;
    }
};

/**
 * Projects rail voltage and current for a hypothetical operating point.
 */
class ChipPowerModel
{
  public:
    ChipPowerModel(const GuardbandModel &gb, double leakage_per_core_amps,
                   int num_cores);

    /** Rail voltage target: base V(f) plus the sum of core guardbands. */
    double vTargetVolts(double freq_ghz,
                        const std::vector<CoreActivity> &act) const;

    /**
     * Supply current: Σ_active cores Cdyn·V·F plus leakage for powered
     * (non-power-gated) cores.
     */
    double iccAmps(double freq_ghz, double volts,
                   const std::vector<CoreActivity> &act) const;

    /** Package power at the given point (V · Icc). */
    double powerWatts(double freq_ghz,
                      const std::vector<CoreActivity> &act) const;

    /**
     * Highest frequency from @p bins_ghz (ascending) whose projected V
     * and I satisfy @p limits; falls back to the lowest bin.
     */
    double maxFreqGhz(const std::vector<CoreActivity> &act,
                      const ElectricalLimits &limits,
                      const std::vector<double> &bins_ghz) const;

  private:
    const GuardbandModel &gb_;
    double leakagePerCoreAmps_;
    int numCores_;
};

} // namespace ich

#endif // ICH_PMU_LIMITS_HH
