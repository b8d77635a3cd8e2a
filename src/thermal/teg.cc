#include "thermal/teg.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace h2p {
namespace thermal {

namespace {

/** Junction dT fraction: TEG resistance against both plate films. */
double
junctionFraction(const TegDevice &device, const ColdPlate &plate,
                 double flow_lph)
{
    double r_teg = device.thermalResistance();
    return r_teg / (r_teg + 2.0 * plate.resistance(flow_lph));
}

} // namespace

TegDevice::TegDevice(const TegParams &params) : params_(params)
{
    expect(params.resistance_ohm > 0.0,
           "TEG electrical resistance must be positive");
    expect(params.thermal_resistance_kpw > 0.0,
           "TEG thermal resistance must be positive");
    expect(params.voc_slope > 0.0, "TEG V_oc slope must be positive");
    expect(params.reference_flow_lph > 0.0,
           "TEG reference flow must be positive");
}

double
TegDevice::openCircuitVoltage(double coolant_dt) const
{
    double v = params_.voc_slope * coolant_dt + params_.voc_offset;
    return std::max(0.0, v);
}

double
TegDevice::maxPowerEmpirical(double coolant_dt) const
{
    if (coolant_dt <= 0.0)
        return 0.0;
    double p = (params_.pfit_a * coolant_dt + params_.pfit_b) * coolant_dt +
               params_.pfit_c;
    return std::max(0.0, p);
}

double
TegDevice::maxPowerPhysical(double coolant_dt) const
{
    double v = openCircuitVoltage(coolant_dt);
    return v * v / (4.0 * params_.resistance_ohm);
}

TegModule::TegModule(size_t count, const TegParams &params,
                     const ColdPlateParams &plate)
    : count_(count), device_(params), plate_(plate),
      reference_fraction_(
          junctionFraction(device_, plate_, params.reference_flow_lph))
{
    expect(count >= 1, "a TEG module needs at least one device");
}

double
TegModule::resistance() const
{
    return static_cast<double>(count_) * device_.resistance();
}

double
TegModule::flowCoupling(double flow_lph) const
{
    // Normalized so the empirical fits are exact at the reference flow.
    return junctionFraction(device_, plate_, flow_lph) /
           reference_fraction_;
}

TegStepCoefficients
TegModule::stepCoefficients(double flow_lph) const
{
    TegStepCoefficients c;
    c.coupling = flowCoupling(flow_lph);
    c.devices = static_cast<double>(count_);
    c.pfit_a = device_.params().pfit_a;
    c.pfit_b = device_.params().pfit_b;
    c.pfit_c = device_.params().pfit_c;
    return c;
}

double
TegModule::openCircuitVoltage(double coolant_dt, double flow_lph) const
{
    double dt_eff = coolant_dt * flowCoupling(flow_lph);
    return static_cast<double>(count_) *
           device_.openCircuitVoltage(dt_eff);
}

double
TegModule::openCircuitVoltage(double coolant_dt) const
{
    return static_cast<double>(count_) *
           device_.openCircuitVoltage(coolant_dt);
}

double
TegModule::maxPower(double coolant_dt) const
{
    return static_cast<double>(count_) *
           device_.maxPowerEmpirical(coolant_dt);
}

double
TegModule::maxPower(double coolant_dt, double flow_lph) const
{
    double dt_eff = coolant_dt * flowCoupling(flow_lph);
    return static_cast<double>(count_) *
           device_.maxPowerEmpirical(dt_eff);
}

double
TegModule::powerFromTemps(double t_warm_out, double t_cold,
                          double flow_lph) const
{
    double dt = t_warm_out - t_cold; // Paper Eq. 2.
    if (dt <= 0.0)
        return 0.0;
    return maxPower(dt, flow_lph);
}

double
TegModule::powerFromTemps(double t_warm_out, double t_cold,
                          double flow_lph, size_t active_devices) const
{
    expect(active_devices <= count_, "module has ", count_,
           " devices; ", active_devices, " cannot be active");
    if (active_devices == 0)
        return 0.0;
    // Matched-load module power is linear in the series count (Eq. 7),
    // so a shortened string produces the active/total fraction.
    return powerFromTemps(t_warm_out, t_cold, flow_lph) *
           (static_cast<double>(active_devices) /
            static_cast<double>(count_));
}

} // namespace thermal
} // namespace h2p
