#include "cluster/server_block.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace h2p {
namespace cluster {

void
ServerStateBlock::resize(size_t n)
{
    util.resize(n);
    cpu_power_w.resize(n);
    die_temp_c.resize(n);
    outlet_c.resize(n);
    heat_w.resize(n);
    teg_power_w.resize(n);
    teg_power_lost_w.resize(n);
    faulted.resize(n);
    safe.resize(n);
}

ServerBlock::ServerBlock(const ServerParams &params)
    : thermal_(params.thermal),
      teg_(params.tegs_per_server, params.teg),
      power_scale_(params.power.scale), power_shift_(params.power.shift),
      power_offset_(params.power.offset),
      gamma_slope_(params.thermal.gamma_slope),
      leak_gamma_(params.thermal.leak_gamma),
      leak_ref_c_(params.thermal.leak_ref_c),
      parasitic_w_(params.thermal.parasitic_w),
      max_operating_c_(params.thermal.max_operating_c),
      teg_count_(params.tegs_per_server)
{
}

ServerBlock::Coeffs
ServerBlock::coefficients(double flow_lph, double t_in_c,
                          double t_cold_c) const
{
    Coeffs c;
    c.flow_lph = flow_lph;
    c.t_in_c = t_in_c;
    c.t_cold_c = t_cold_c;
    c.cpu = thermal_.stepCoefficients(flow_lph);
    c.teg = teg_.stepCoefficients(flow_lph);
    return c;
}

namespace {

/** Whether utils[0, n) hold one value under `==`. */
bool
allEqual(const double *utils, size_t n)
{
    return std::all_of(utils + 1, utils + n,
                       [first = utils[0]](double u) { return u == first; });
}

/** TEGs still generating in server @p i's string of @p count. */
size_t
activeTegs(const SegmentHealth &health, size_t i, size_t count)
{
    if (health.teg_open != nullptr && health.teg_open[i] != 0)
        return 0;
    const size_t shorted =
        health.tegs_shorted != nullptr ? health.tegs_shorted[i] : 0;
    return count - std::min(count, shorted);
}

} // namespace

ServerBlock::Totals
ServerBlock::evaluate(const double *utils, size_t n, const Coeffs &c,
                      const SegmentHealth &health,
                      ServerStateBlock &out, size_t offset) const
{
    expect(offset + n <= out.size(), "servers [", offset, ", ",
           offset + n, ") out of range (block has ", out.size(), ")");
    double *ou = out.util.data() + offset;
    double *cpu = out.cpu_power_w.data() + offset;
    double *die = out.die_temp_c.data() + offset;
    double *heat = out.heat_w.data() + offset;
    double *outlet = out.outlet_c.data() + offset;
    double *teg = out.teg_power_w.data() + offset;
    double *lost = out.teg_power_lost_w.data() + offset;
    uint8_t *faulted = out.faulted.data() + offset;
    uint8_t *safe = out.safe.data() + offset;

    const double plate_r = c.cpu.plate_r_kpw;
    const double cap = c.cpu.cap_rate_w_per_k;
    const double t_in = c.t_in_c;
    const double t_cold = c.t_cold_c;
    const double coupling = c.teg.coupling;
    const double devices = c.teg.devices;
    const double pa = c.teg.pfit_a;
    const double pb = c.teg.pfit_b;
    const double pc = c.teg.pfit_c;
    // Members too: a store through an output lane may alias *this as
    // far as the compiler knows, which would reload them per server.
    const double leak_gamma = leak_gamma_;
    const double leak_ref = leak_ref_c_;
    const double parasitic = parasitic_w_;
    const double max_die_ok = max_operating_c_;
    const bool strings = health.hasStringLanes();

    // A balanced circulation: every server at one utilization is the
    // same server up to its TEG string (passes 1-5 are elementwise
    // and pure, and `==` lumps only -0.0 with +0.0, which every pass
    // maps alike). Run them on the first server and copy its outputs;
    // each server keeps its own util bits, and the closing pass still
    // derates and adds server by server in index order. A NaN matches
    // nothing, so it takes the passes and their error.
    const bool uniform = n > 1 && allEqual(utils, n);
    const size_t m = uniform ? 1 : n;

    // Pass 1: utilization -> CPU package power (Eq. 20). The log is
    // the one libm call per server, skipped when a server repeats its
    // predecessor's utilization (runs of equal utilizations in a loop
    // that is not uniform; Eq. 20 is pure).
    // Everything after is straight-line arithmetic over the arrays.
    for (size_t i = 0; i < m; ++i) {
        const double u = utils[i];
        expect(u >= 0.0 && u <= 1.0,
               "utilization must be in [0, 1], got ", u);
        const double p =
            i > 0 && u == utils[i - 1]
                ? cpu[i - 1]
                : power_scale_ * std::log(u + power_shift_) + power_offset_;
        expect(p >= 0.0, "dynamic power must be non-negative");
        ou[i] = u;
        cpu[i] = p;
    }

    // A degraded server takes the loop's fouling as its extra
    // resistance, which Server::evaluate rejects when negative or NaN.
    // NaN fouling degrades every server, so it is always rejected.
    // Fouling that is not positive leaves a server clean, so a
    // negative value is rejected only where a faulted string degrades
    // a server some other way.
    const double f = health.fouling_kpw;
    const bool fouled = health.fouled();
    bool rejected = std::isnan(f);
    if (f < 0.0 && strings)
        for (size_t i = 0; i < n && !rejected; ++i)
            rejected = activeTegs(health, i, teg_count_) != teg_count_;
    expect(!rejected, "fouling resistance must be non-negative");

    // Pass 2: die temperature (Fig. 10/11 linear model), T_die = k *
    // T_in + P * r with one resistance r for the loop: the clean plate
    // (the hoisted slope, as Server::evaluate without fouling) or the
    // plate plus the loop's fouling, k = 1 + gamma * r. k * T_in is
    // the same value every server computes; hoist it.
    double r = plate_r;
    double k = c.cpu.slope_k;
    if (fouled) {
        r = plate_r + f;
        k = 1.0 + gamma_slope_ * r;
    }
    const double kt = k * t_in;
    for (size_t i = 0; i < m; ++i)
        die[i] = kt + cpu[i] * r;

    // Pass 3: heat into the coolant (dynamic + bounded leakage +
    // parasitic pickup).
    for (size_t i = 0; i < m; ++i) {
        const double leak =
            std::max(0.0, leak_gamma * (die[i] - leak_ref));
        heat[i] = cpu[i] + leak + parasitic;
    }

    // Pass 4: outlet temperature (Eq. 8 advection balance).
    for (size_t i = 0; i < m; ++i)
        outlet[i] = t_in + heat[i] / cap;

    // Pass 5: healthy TEG harvest (Eq. 2 + Eq. 6/7 with the Fig. 7
    // coupling).
    for (size_t i = 0; i < m; ++i) {
        const double dt = outlet[i] - t_cold;
        double p = 0.0;
        if (dt > 0.0) {
            const double dt_eff = dt * coupling;
            if (dt_eff > 0.0)
                p = devices *
                    std::max(0.0, (pa * dt_eff + pb) * dt_eff + pc);
        }
        teg[i] = p;
    }

    if (uniform) {
        std::copy(utils + 1, utils + n, ou + 1);
        std::fill(cpu + 1, cpu + n, cpu[0]);
        std::fill(die + 1, die + n, die[0]);
        std::fill(heat + 1, heat + n, heat[0]);
        std::fill(outlet + 1, outlet + n, outlet[0]);
        std::fill(teg + 1, teg + n, teg[0]);
    }

    // Closing pass, in strict server-index order. First derate the
    // servers whose string is faulted (healthy output times
    // active/count, as the scalar path). A clean string keeps its
    // output and loses +0.0 W, which is exactly what the ratio 1.0
    // gives, so skipping it changes no bit; the lost total adds only
    // the derated servers, as every other one would add +0.0. Then
    // set the safety flags and accumulate the totals, which must not
    // depend on how the passes above were vectorized. The sums live
    // in locals: the byte-wide flag stores may alias the returned
    // Totals, which would otherwise be reloaded every iteration.
    std::fill(lost, lost + n, 0.0);
    std::fill(faulted, faulted + n, static_cast<uint8_t>(fouled ? 1 : 0));
    size_t faulted_servers = fouled ? n : 0;
    double lost_w = 0.0;
    if (strings) {
        for (size_t i = 0; i < n; ++i) {
            const size_t active = activeTegs(health, i, teg_count_);
            if (active == teg_count_)
                continue;
            const double ratio = static_cast<double>(active) / devices;
            const double p = teg[i] * ratio;
            lost[i] = teg[i] - p;
            teg[i] = p;
            lost_w += lost[i];
            faulted_servers += fouled ? 0 : 1;
            faulted[i] = 1;
        }
    }
    double cpu_w = 0.0;
    double teg_w = 0.0;
    double heat_w = 0.0;
    double sum_outlet_c = 0.0;
    double max_die_c = 0.0;
    bool all_safe = true;
    for (size_t i = 0; i < n; ++i) {
        const bool ok = die[i] <= max_die_ok;
        safe[i] = ok ? 1 : 0;
        cpu_w += cpu[i];
        teg_w += teg[i];
        heat_w += heat[i];
        sum_outlet_c += outlet[i];
        max_die_c = std::max(max_die_c, die[i]);
        all_safe = all_safe && ok;
    }
    return {.cpu_power_w = cpu_w,
            .teg_power_w = teg_w,
            .teg_power_lost_w = lost_w,
            .heat_w = heat_w,
            .sum_outlet_c = sum_outlet_c,
            .max_die_c = max_die_c,
            .faulted_servers = faulted_servers,
            .all_safe = all_safe};
}

} // namespace cluster
} // namespace h2p
