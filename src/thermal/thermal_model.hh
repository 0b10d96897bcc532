/**
 * @file
 * Lumped-RC junction-temperature model.
 *
 * dT/dt = (P − (T − Tamb)/Rth) / Cth, integrated in closed form per
 * constant-power segment: T(t) = T∞ + (T0 − T∞)·exp(−t/(Rth·Cth)) with
 * T∞ = Tamb + P·Rth.
 *
 * The paper uses temperature only to *rule out* thermal causes (Key
 * Conclusion 2, Fig. 7b: Tj stays near 60 °C, far below Tjmax = 100 °C,
 * while current limits throttle frequency within tens of microseconds).
 * The multi-second RC time constant here reproduces exactly that
 * separation of timescales.
 */

#ifndef ICH_THERMAL_THERMAL_MODEL_HH
#define ICH_THERMAL_THERMAL_MODEL_HH

#include "common/types.hh"

namespace ich
{

/** Thermal configuration. */
struct ThermalConfig {
    /**
     * Periodic Tj update interval, driven by the chip Ticker. 0 (the
     * default) keeps the model purely lazy: closed-form integration on
     * read, assuming the power seen at the read was constant since the
     * previous one. A nonzero interval bounds that piecewise-constant
     * assumption for workloads that sample temperature sparsely.
     */
    Time sampleInterval = 0;
};

/**
 * One thermal node driven by piecewise-constant power. Its thermal
 * resistance and capacitance are constants in thermal_model.cc.
 */
class ThermalModel
{
  public:
    /** Ambient temperature, where the node starts. */
    static constexpr double kAmbientCelsius = 35.0;
    /** Junction temperature limit, Tjmax (Fig. 7b). */
    static constexpr double kTjMaxCelsius = 100.0;

    /**
     * Advance to @p now assuming @p watts was dissipated since the last
     * call, then return the junction temperature.
     */
    double update(Time now, double watts);

    /** Last computed junction temperature (no time advance). */
    double celsius() const { return tempC_; }

    bool overTjMax() const { return tempC_ > kTjMaxCelsius; }

  private:
    double tempC_ = kAmbientCelsius;
    Time lastUpdate_ = 0;
};

} // namespace ich

#endif // ICH_THERMAL_THERMAL_MODEL_HH
