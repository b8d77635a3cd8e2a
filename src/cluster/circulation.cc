#include "cluster/circulation.h"

#include <algorithm>

#include "util/error.h"

namespace h2p {
namespace cluster {

Circulation::Circulation(size_t count, const ServerParams &server_params,
                         const hydraulic::PumpParams &pump_params)
    : count_(count), server_(server_params), block_(server_params),
      pump_(pump_params)
{
    expect(count >= 1, "a circulation needs at least one server");
}

void
Circulation::evaluateInto(const double *utils, size_t n,
                          const CoolingSetting &setting, double t_cold_c,
                          const CirculationHealth *health,
                          CirculationState &out) const
{
    expect(n == count_, "expected ", count_, " utilizations, got ", n);
    expect(setting.flow_lph > 0.0, "flow must be positive");

    const bool clean = health == nullptr || health->clean();

    out.setting = setting;

    if (clean) {
        out.delivered_flow_lph = setting.flow_lph;

        ServerBlock::Coeffs c = block_.coefficients(
            setting.flow_lph, setting.t_in_c, t_cold_c);
        block_.evaluateClean(utils, n, c, out.servers);

        ServerBlock::Totals t = ServerBlock::reduce(out.servers);
        out.cpu_power_w = t.cpu_power_w;
        out.teg_power_w = t.teg_power_w;
        out.teg_power_lost_w = 0.0;
        out.heat_w = t.heat_w;
        out.max_die_c = t.max_die_c;
        out.all_safe = t.all_safe;
        out.faulted_servers = 0;
        out.return_c = t.sum_outlet_c / static_cast<double>(count_);
        // The centralized pump's head scales with the per-branch flow
        // (branches are parallel), so model it as one pump-equivalent
        // per branch: total power = count * affinity-law power at
        // branch flow.
        out.pump_power_w =
            pump_.power(setting.flow_lph) * static_cast<double>(count_);
        return;
    }

    expect(health->pump_flow_factor >= 0.0 &&
               health->pump_flow_factor <= 1.0,
           "pump flow factor must be in [0, 1]");
    expect(!health->hasServerLanes() ||
               health->numServers() == count_,
           "expected ", count_, " server healths, got ",
           health->numServers());

    // The pump delivers only a fraction of the command; the thermal
    // model sees at least the stagnant trickle so it stays finite.
    double hydraulic_flow = setting.flow_lph * health->pump_flow_factor;
    double thermal_flow = std::max(hydraulic_flow, kStagnantFlowLph);

    out.delivered_flow_lph = hydraulic_flow;

    ServerBlock::Coeffs c =
        block_.coefficients(thermal_flow, setting.t_in_c, t_cold_c);
    block_.evaluateFaulted(utils, n, c, health->lanes(), out.servers);

    ServerBlock::Totals t = ServerBlock::reduce(out.servers);
    out.cpu_power_w = t.cpu_power_w;
    out.teg_power_w = t.teg_power_w;
    out.teg_power_lost_w = t.teg_power_lost_w;
    out.heat_w = t.heat_w;
    out.max_die_c = t.max_die_c;
    out.all_safe = t.all_safe;
    // A degraded pump affects every server in the loop; otherwise
    // only the lanes with their own fault count.
    out.faulted_servers = health->pump_flow_factor < 1.0
                              ? count_
                              : t.faulted_servers;
    out.return_c = t.sum_outlet_c / static_cast<double>(count_);
    // The degraded pump still runs its electronics but moves only the
    // delivered flow (a dead pump idles).
    out.pump_power_w =
        pump_.power(hydraulic_flow) * static_cast<double>(count_);
}

} // namespace cluster
} // namespace h2p
