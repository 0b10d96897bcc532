#include "thermal/thermal_model.hh"

#include <cmath>

namespace ich
{

namespace
{
/** Junction-to-ambient thermal resistance, °C/W. */
constexpr double kRThermal = 1.4;
/** Thermal capacitance, J/°C (sets the multi-second time constant). */
constexpr double kCThermal = 2.0;
} // namespace

double
ThermalModel::update(Time now, double watts)
{
    if (now > lastUpdate_) {
        double dt = toSeconds(now - lastUpdate_);
        double tau = kRThermal * kCThermal;
        double t_inf = kAmbientCelsius + watts * kRThermal;
        tempC_ = t_inf + (tempC_ - t_inf) * std::exp(-dt / tau);
        lastUpdate_ = now;
    }
    return tempC_;
}

} // namespace ich
