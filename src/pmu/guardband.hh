/**
 * @file
 * Adaptive voltage guardband model (paper §2, Equation 1).
 *
 * The processor defines multiple power-virus levels by the maximum dynamic
 * capacitance the current architectural state can draw. Moving to a higher
 * level adds a guardband ΔV = ΔCdyn · Vcc · F · RLL on top of the V/F
 * curve's base voltage. Guardbands are additive across cores because all
 * cores share one rail (Fig. 6: +8 mV, then +9 mV more as a second core
 * starts AVX2).
 */

#ifndef ICH_PMU_GUARDBAND_HH
#define ICH_PMU_GUARDBAND_HH

#include <vector>

#include "isa/inst_class.hh"
#include "pdn/loadline.hh"

namespace ich
{

/** Linear voltage/frequency operating curve: V(f) = v0 + k·f. */
struct VfCurve {
    double v0Volts = 0.55;
    double voltsPerGhz = 0.10;

    double
    volts(double freq_ghz) const
    {
        return v0Volts + voltsPerGhz * freq_ghz;
    }
};

/**
 * Maps guardband levels (0..4, from InstTraits) to voltage guardbands.
 */
class GuardbandModel
{
  public:
    GuardbandModel(const LoadLine &ll, const VfCurve &vf);

    /** Largest ΔCdyn (nF) among classes at @p level. */
    double levelCdynNf(int level) const;

    /**
     * Guardband voltage for one core at @p level when the rail sits at
     * the base voltage for @p freq_ghz (Equation 1).
     */
    double gbVolts(int level, double freq_ghz) const;

    /** Base (no-PHI) voltage at @p freq_ghz. */
    double baseVolts(double freq_ghz) const { return vf_.volts(freq_ghz); }

    /** Number of levels (5 for the modeled ISA). */
    int numLevels() const { return static_cast<int>(cdynNf_.size()); }

  private:
    LoadLine ll_;
    VfCurve vf_;
    std::vector<double> cdynNf_; // per level, nF
};

} // namespace ich

#endif // ICH_PMU_GUARDBAND_HH
