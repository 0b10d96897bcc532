#include "thermal/thermal_model.hh"

#include <cmath>

namespace ich
{

ThermalModel::ThermalModel(const ThermalConfig &cfg)
    : cfg_(cfg), tempC_(cfg.ambientCelsius)
{
}

double
ThermalModel::update(Time now, double watts)
{
    if (now > lastUpdate_) {
        double dt = toSeconds(now - lastUpdate_);
        double tau = cfg_.rThermal * cfg_.cThermal;
        double t_inf = cfg_.ambientCelsius + watts * cfg_.rThermal;
        tempC_ = t_inf + (tempC_ - t_inf) * std::exp(-dt / tau);
        lastUpdate_ = now;
    }
    return tempC_;
}

} // namespace ich
