#include "sched/lookup_space.h"

#include <cmath>

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
        double u = au.coord(i);
        double p_dyn = power.power(u);
        for (size_t j = 0; j < af.count(); ++j) {
            double f = af.coord(j);
            for (size_t k = 0; k < at.count(); ++k) {
                double t_in = at.coord(k);
                double t_cpu = thermal.dieTemperature(p_dyn, f, t_in);
                double t_out = thermal.outletTemperature(p_dyn, f, t_in);
                // Slice scans compare temperatures with <, and the
                // coldest-point candidates rely on a total order.
                expect(std::isfinite(t_cpu) && std::isfinite(t_out),
                       "server model gives a non-finite temperature at "
                       "look-up node (u=", u, ", flow=", f,
                       " L/H, T_in=", t_in, " C): T_CPU=", t_cpu,
                       ", T_out=", t_out);
                cpu_vals.push_back(t_cpu);
                out_vals.push_back(t_out);
            }
        }
    }
    t_cpu_ = std::make_unique<LinearGrid3D>(au, af, at,
                                            std::move(cpu_vals));
    t_out_ = std::make_unique<LinearGrid3D>(au, af, at,
                                            std::move(out_vals));
    cpu_nodes_ = t_cpu_->yzNodeTable();
    out_nodes_ = t_out_->yzNodeTable();

    for (size_t j = 0; j < af.count(); ++j)
        flow_coords_.push_back(af.coord(j));
    for (size_t k = 0; k < at.count(); ++k)
        tin_coords_.push_back(at.coord(k));

    const size_t plane = af.count() * at.count();
    for (size_t i = 0; i + 1 < au.count(); ++i) {
        const double *lo = cpu_nodes_.data() + i * plane;
        candidates_.push_back(coldestCandidates(lo, lo + plane, plane));
    }
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

LookupPoint
LookupSpace::coldestInSlice(double util) const
{
    size_t i = 0;
    double tx = 0.0;
    t_cpu_->xAxis().locate(util, i, tx);
    const size_t plane = flow_coords_.size() * tin_coords_.size();
    const double *cpu = cpu_nodes_.data() + i * plane;
    const double *out = out_nodes_.data() + i * plane;
    // Every list is non-empty: node 0 has no earlier dominator.
    const std::vector<uint32_t> &cands = candidates_[i];
    const size_t best = firstColdestNode(cpu, cpu + plane, tx, cands.data(),
                                         cands.data() + cands.size());
    LookupPoint p;
    p.util = util;
    p.flow_lph = flow_coords_[best / tin_coords_.size()];
    p.t_in_c = tin_coords_[best % tin_coords_.size()];
    p.t_cpu_c = lerp(cpu[best], cpu[best + plane], tx);
    p.t_out_c = lerp(out[best], out[best + plane], tx);
    return p;
}

size_t
LookupSpace::numPoints() const
{
    return params_.util_points * params_.flow_points * params_.tin_points;
}

std::vector<uint32_t>
coldestCandidates(const double *lo, const double *hi, size_t n)
{
    std::vector<uint32_t> kept;
    for (size_t k = 0; k < n; ++k) {
        // Checking the kept nodes suffices: a pruned dominator of k is
        // itself dominated by an earlier kept node, which then
        // dominates k too.
        bool dominated = false;
        for (uint32_t m : kept) {
            if (lo[m] <= lo[k] && hi[m] <= hi[k]) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            kept.push_back(static_cast<uint32_t>(k));
    }
    return kept;
}

uint32_t
firstColdestNode(const double *lo, const double *hi, double t,
                 const uint32_t *first, const uint32_t *last)
{
    uint32_t best = *first;
    double best_t = lerp(lo[best], hi[best], t);
    for (const uint32_t *k = first + 1; k != last; ++k) {
        double v = lerp(lo[*k], hi[*k], t);
        if (v < best_t) {
            best_t = v;
            best = *k;
        }
    }
    return best;
}

} // namespace sched
} // namespace h2p
