#include "thermal/cpu.h"

#include <algorithm>

#include "util/error.h"
#include "util/units.h"

namespace h2p {
namespace thermal {

CpuThermalModel::CpuThermalModel(const CpuThermalParams &params)
    : params_(params), plate_(params.plate)
{
    expect(params.gamma_slope >= 0.0, "gamma_slope must be non-negative");
    expect(params.leak_gamma >= 0.0, "leak_gamma must be non-negative");
    expect(params.parasitic_w >= 0.0, "parasitic_w must be non-negative");
}

double
CpuThermalModel::plateResistance(double flow_lph,
                                 double fouling_kpw) const
{
    expect(fouling_kpw >= 0.0, "fouling resistance must be non-negative");
    return plate_.resistance(flow_lph) + fouling_kpw;
}

double
CpuThermalModel::coolantSlope(double flow_lph, double fouling_kpw) const
{
    return 1.0 +
           params_.gamma_slope * plateResistance(flow_lph, fouling_kpw);
}

CpuStepCoefficients
CpuThermalModel::stepCoefficients(double flow_lph) const
{
    CpuStepCoefficients c;
    c.plate_r_kpw = plateResistance(flow_lph);
    // coolantSlope(flow, 0) exactly: plateResistance adds +0.0.
    c.slope_k = 1.0 + params_.gamma_slope * c.plate_r_kpw;
    c.cap_rate_w_per_k = units::streamCapacitanceRate(flow_lph);
    return c;
}

double
CpuThermalModel::dieTemperature(double p_dyn_w, double flow_lph,
                                double t_in_c, double fouling_kpw) const
{
    expect(p_dyn_w >= 0.0, "dynamic power must be non-negative");
    double k = coolantSlope(flow_lph, fouling_kpw);
    double r = plateResistance(flow_lph, fouling_kpw);
    return k * t_in_c + p_dyn_w * r;
}

double
CpuThermalModel::heatToCoolant(double p_dyn_w, double flow_lph,
                               double t_in_c, double fouling_kpw) const
{
    double t_die = dieTemperature(p_dyn_w, flow_lph, t_in_c, fouling_kpw);
    double leak =
        std::max(0.0, params_.leak_gamma * (t_die - params_.leak_ref_c));
    return p_dyn_w + leak + params_.parasitic_w;
}

double
CpuThermalModel::outletDelta(double p_dyn_w, double flow_lph,
                             double t_in_c, double fouling_kpw) const
{
    double cap_rate = units::streamCapacitanceRate(flow_lph);
    return heatToCoolant(p_dyn_w, flow_lph, t_in_c, fouling_kpw) /
           cap_rate;
}

double
CpuThermalModel::outletTemperature(double p_dyn_w, double flow_lph,
                                   double t_in_c,
                                   double fouling_kpw) const
{
    return t_in_c + outletDelta(p_dyn_w, flow_lph, t_in_c, fouling_kpw);
}

} // namespace thermal
} // namespace h2p
