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

ServerState
ServerStateBlock::server(size_t i) const
{
    expect(i < size(), "server ", i, " out of range (block has ",
           size(), ")");
    ServerState s;
    s.util = util[i];
    s.cpu_power_w = cpu_power_w[i];
    s.die_temp_c = die_temp_c[i];
    s.outlet_c = outlet_c[i];
    s.heat_w = heat_w[i];
    s.teg_power_w = teg_power_w[i];
    s.teg_power_lost_w = teg_power_lost_w[i];
    s.faulted = faulted[i] != 0;
    s.safe = safe[i] != 0;
    return s;
}

void
ServerStateBlock::materializeInto(std::vector<ServerState> &out) const
{
    out.resize(size());
    for (size_t i = 0; i < size(); ++i)
        out[i] = server(i);
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

void
ServerBlock::evaluate(const double *utils, size_t n, const Coeffs &c,
                      const ServerHealthLanes &lanes,
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
    const bool healthy = lanes.allHealthy();

    // Pass 1: utilization -> CPU package power (Eq. 20). The log is
    // the one libm call per server; everything after is straight-line
    // arithmetic over the arrays.
    for (size_t i = 0; i < n; ++i) {
        const double u = utils[i];
        expect(u >= 0.0 && u <= 1.0,
               "utilization must be in [0, 1], got ", u);
        const double p =
            power_scale_ * std::log(u + power_shift_) + power_offset_;
        expect(p >= 0.0, "dynamic power must be non-negative");
        ou[i] = u;
        cpu[i] = p;
    }

    // Pass 2: die temperature (Fig. 10/11 linear model).
    if (healthy) {
        // k * t_in is the same value every server computes; hoist it.
        const double kt = c.cpu.slope_k * t_in;
        for (size_t i = 0; i < n; ++i)
            die[i] = kt + cpu[i] * plate_r;
    } else {
        // The faulted-lane mask and the per-server thermal resistance.
        // A ServerHealth is clean when no TEG is open, none are
        // shorted and fouling is not positive (mirroring
        // ServerHealth::clean()); clean lanes take the pristine plate.
        // Scalar-path fidelity: negative fouling only rejects on lanes
        // that are degraded some other way, exactly like
        // Server::evaluate.
        for (size_t i = 0; i < n; ++i) {
            const double f =
                lanes.fouling_kpw != nullptr ? lanes.fouling_kpw[i] : 0.0;
            const bool open =
                lanes.teg_open != nullptr && lanes.teg_open[i] != 0;
            const size_t shorted =
                lanes.tegs_shorted != nullptr ? lanes.tegs_shorted[i] : 0;
            const bool clean = !open && shorted == 0 && f <= 0.0;
            faulted[i] = clean ? 0 : 1;

            double fouling = 0.0;
            if (!clean) {
                expect(f >= 0.0,
                       "fouling resistance must be non-negative");
                fouling = f;
            }
            // Stash the per-lane plate resistance in the die array;
            // the next loop overwrites it with the die temperature.
            die[i] = plate_r + fouling;
        }
        // k_i = 1 + gamma * r_i, T_die = k_i * T_in + P * r_i.
        for (size_t i = 0; i < n; ++i) {
            const double r = die[i];
            const double k = 1.0 + gamma_slope_ * r;
            die[i] = k * t_in + cpu[i] * r;
        }
    }

    // Pass 3: heat into the coolant (dynamic + bounded leakage +
    // parasitic pickup).
    for (size_t i = 0; i < n; ++i) {
        const double leak =
            std::max(0.0, leak_gamma_ * (die[i] - leak_ref_c_));
        heat[i] = cpu[i] + leak + parasitic_w_;
    }

    // Pass 4: outlet temperature (Eq. 8 advection balance).
    for (size_t i = 0; i < n; ++i)
        outlet[i] = t_in + heat[i] / cap;

    // Pass 5: healthy TEG harvest (Eq. 2 + Eq. 6/7 with the Fig. 7
    // coupling).
    for (size_t i = 0; i < n; ++i) {
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

    // Pass 6: per-lane derating. The healthy module output times
    // active/count reproduces the scalar faulted path bit for bit;
    // ratio 1.0 (no TEG fault) and 0.0 (open string) are exact
    // multipliers, so clean lanes lose exactly +0.0 W. Without lanes
    // nothing is faulted and nothing is lost.
    if (healthy) {
        for (size_t i = 0; i < n; ++i) {
            lost[i] = 0.0;
            faulted[i] = 0;
        }
    } else {
        for (size_t i = 0; i < n; ++i) {
            const bool open =
                lanes.teg_open != nullptr && lanes.teg_open[i] != 0;
            const size_t shorted =
                lanes.tegs_shorted != nullptr ? lanes.tegs_shorted[i] : 0;
            const size_t active =
                open ? 0 : teg_count_ - std::min(teg_count_, shorted);
            const double ratio = static_cast<double>(active) / devices;
            const double p = teg[i] * ratio;
            lost[i] = teg[i] - p;
            teg[i] = p;
        }
    }

    // Pass 7: safety flags.
    for (size_t i = 0; i < n; ++i)
        safe[i] = die[i] <= max_operating_c_ ? 1 : 0;
}

ServerBlock::Totals
ServerBlock::reduce(const ServerStateBlock &block, size_t offset,
                    size_t n)
{
    expect(offset + n <= block.size(), "servers [", offset, ", ",
           offset + n, ") out of range (block has ", block.size(), ")");
    Totals t;
    const double *cpu = block.cpu_power_w.data() + offset;
    const double *teg = block.teg_power_w.data() + offset;
    const double *lost = block.teg_power_lost_w.data() + offset;
    const double *heat = block.heat_w.data() + offset;
    const double *outlet = block.outlet_c.data() + offset;
    const double *die = block.die_temp_c.data() + offset;
    const uint8_t *faulted = block.faulted.data() + offset;
    const uint8_t *safe = block.safe.data() + offset;
    // Strict index order per accumulator: the totals must not depend
    // on how the elementwise passes were chunked or vectorized.
    for (size_t i = 0; i < n; ++i) {
        t.cpu_power_w += cpu[i];
        t.teg_power_w += teg[i];
        t.teg_power_lost_w += lost[i];
        t.heat_w += heat[i];
        t.sum_outlet_c += outlet[i];
        t.max_die_c = std::max(t.max_die_c, die[i]);
        t.all_safe = t.all_safe && safe[i] != 0;
        t.faulted_servers += faulted[i] != 0 ? 1 : 0;
    }
    return t;
}

} // namespace cluster
} // namespace h2p
