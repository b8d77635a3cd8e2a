#include "sched/lookup_space.h"

#include "util/error.h"

namespace h2p {
namespace sched {

LookupSpace::LookupSpace(const cluster::Server &server,
                         const LookupSpaceParams &params)
    : params_(params)
{
    expect(params.util_points >= 2 && params.flow_points >= 2 &&
               params.tin_points >= 2,
           "each look-up axis needs at least 2 samples");
    expect(params.flow_min_lph > 0.0, "flow axis must be positive");
    expect(params.flow_max_lph > params.flow_min_lph &&
               params.tin_max_c > params.tin_min_c,
           "look-up axis bounds inverted");

    GridAxis au(0.0, 1.0, params.util_points);
    GridAxis af(params.flow_min_lph, params.flow_max_lph,
                params.flow_points);
    GridAxis at(params.tin_min_c, params.tin_max_c, params.tin_points);

    std::vector<double> cpu_vals;
    std::vector<double> out_vals;
    cpu_vals.reserve(au.count() * af.count() * at.count());
    out_vals.reserve(cpu_vals.capacity());

    const auto &power = server.powerModel();
    const auto &thermal = server.thermalModel();
    for (size_t i = 0; i < au.count(); ++i) {
        double p_dyn = power.power(au.coord(i));
        for (size_t j = 0; j < af.count(); ++j) {
            double f = af.coord(j);
            for (size_t k = 0; k < at.count(); ++k) {
                double t_in = at.coord(k);
                cpu_vals.push_back(
                    thermal.dieTemperature(p_dyn, f, t_in));
                out_vals.push_back(
                    thermal.outletTemperature(p_dyn, f, t_in));
            }
        }
    }
    t_cpu_ = std::make_unique<LinearGrid3D>(au, af, at,
                                            std::move(cpu_vals));
    t_out_ = std::make_unique<LinearGrid3D>(au, af, at,
                                            std::move(out_vals));
    cpu_nodes_ = t_cpu_->yzNodeTable();
    out_nodes_ = t_out_->yzNodeTable();
}

double
LookupSpace::cpuTemp(double util, double flow_lph, double t_in_c) const
{
    return (*t_cpu_)(util, flow_lph, t_in_c);
}

double
LookupSpace::outletTemp(double util, double flow_lph, double t_in_c) const
{
    return (*t_out_)(util, flow_lph, t_in_c);
}

std::vector<LookupPoint>
LookupSpace::slice(double util) const
{
    std::vector<LookupPoint> points;
    points.reserve(t_cpu_->yAxis().count() * t_cpu_->zAxis().count());
    forEachInSlice(util,
                   [&](const LookupPoint &p) { points.push_back(p); });
    return points;
}

size_t
LookupSpace::numPoints() const
{
    return params_.util_points * params_.flow_points * params_.tin_points;
}

} // namespace sched
} // namespace h2p
