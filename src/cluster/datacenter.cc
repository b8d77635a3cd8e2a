#include "cluster/datacenter.h"

#include <algorithm>

#include "util/error.h"
#include "util/hash.h"

namespace h2p {
namespace cluster {

Datacenter::Datacenter(const DatacenterParams &params)
    : params_(params), block_(params.server), pump_(params.pump),
      plant_(params.plant)
{
    expect(params.num_servers >= 1, "datacenter needs servers");
    expect(params.servers_per_circulation >= 1,
           "circulations need at least one server");
    expect(params.cold_source_c > 0.0,
           "cold-source temperature must be positive (liquid water)");
    expect(params.server.tegs_per_server >= 1,
           "servers need at least one TEG device");

    size_t remaining = params.num_servers;
    size_t offset = 0;
    while (remaining > 0) {
        size_t n = std::min(params.servers_per_circulation, remaining);
        circulation_sizes_.push_back(n);
        circulation_offsets_.push_back(offset);
        offset += n;
        remaining -= n;
    }
}

uint64_t
Datacenter::topologyFingerprint() const
{
    util::Fnv1a h;
    h.size(params_.num_servers);
    h.f64(params_.cold_source_c);
    h.size(circulation_sizes_.size());
    for (size_t n : circulation_sizes_)
        h.size(n);
    return h.digest();
}

size_t
Datacenter::circulationSize(size_t i) const
{
    expect(i < circulation_sizes_.size(), "circulation ", i,
           " out of range");
    return circulation_sizes_[i];
}

DatacenterState
Datacenter::evaluate(const std::vector<double> &utils,
                     const std::vector<CoolingSetting> &settings) const
{
    DatacenterState state;
    evaluateInto(utils, settings, nullptr, state);
    return state;
}

void
Datacenter::evaluateInto(const std::vector<double> &utils,
                         const std::vector<CoolingSetting> &settings,
                         const DatacenterHealth *health,
                         DatacenterState &out) const
{
    const size_t num_circ = circulation_sizes_.size();
    expect(utils.size() == params_.num_servers, "expected ",
           params_.num_servers, " utilizations, got ", utils.size());
    expect(settings.size() == num_circ, "expected ", num_circ,
           " cooling settings, got ", settings.size());

    const bool clean = health == nullptr || health->clean();
    if (!clean) {
        expect(health->circulations.empty() ||
                   health->circulations.size() == num_circ,
               "expected ", num_circ, " circulation healths, got ",
               health->circulations.size());
    }

    out.circulations.resize(num_circ);
    out.servers.resize(params_.num_servers);

    for (size_t i = 0; i < num_circ; ++i) {
        CoolingSetting setting = settings[i];
        const CirculationHealth *ch = nullptr;
        if (!clean) {
            if (!health->circulations.empty())
                ch = &health->circulations[i];
            // A plant outage warms the supply every loop actually gets.
            setting.t_in_c =
                plant_.achievableSupply(setting.t_in_c, health->plant);
        }
        evaluateCirculation(i, utils.data(), setting, ch, out);
    }

    // Reduce in circulation order.
    out.cpu_power_w = 0.0;
    out.teg_power_w = 0.0;
    out.heat_w = 0.0;
    out.pump_power_w = 0.0;
    out.plant_power_w = 0.0;
    out.faulted_servers = 0;
    out.teg_power_lost_w = 0.0;
    out.plant_degraded = false;
    out.all_safe = true;

    double total_flow_lph = 0.0;
    double min_supply_c = 1e9;
    for (size_t i = 0; i < num_circ; ++i) {
        const CirculationState &cs = out.circulations[i];
        const double n = static_cast<double>(circulation_sizes_[i]);
        out.cpu_power_w += cs.cpu_power_w;
        out.teg_power_w += cs.teg_power_w;
        out.teg_power_lost_w += cs.teg_power_lost_w;
        out.heat_w += cs.heat_w;
        out.pump_power_w += cs.pump_power_w;
        out.faulted_servers += cs.faulted_servers;
        out.all_safe = out.all_safe && cs.all_safe;
        out.plant_degraded |= cs.setting.t_in_c != settings[i].t_in_c;
        total_flow_lph += cs.delivered_flow_lph * n;
        min_supply_c = std::min(min_supply_c, cs.setting.t_in_c);
    }

    // The plant must honour the coldest requested supply temperature.
    if (clean) {
        hydraulic::PlantPower pp =
            plant_.power(out.heat_w, min_supply_c, total_flow_lph);
        out.plant_power_w = pp.total();
    } else {
        // Keep the plant model fed with a positive flow even when
        // every pump in the building is dead.
        total_flow_lph = std::max(total_flow_lph, kStagnantFlowLph);
        hydraulic::PlantPower pp =
            plant_.power(out.heat_w, min_supply_c, total_flow_lph,
                         health->plant);
        out.plant_power_w = pp.total();
    }
}

void
Datacenter::evaluateCirculation(size_t i, const double *utils,
                                const CoolingSetting &setting,
                                const CirculationHealth *health,
                                DatacenterState &out) const
{
    const size_t offset = circulation_offsets_[i];
    const size_t n = circulation_sizes_[i];
    expect(setting.flow_lph > 0.0, "flow must be positive");

    // Under a non-clean health the pump delivers only a fraction of
    // the command; the thermal model sees at least the stagnant
    // trickle so it stays finite.
    const bool degraded = health != nullptr && !health->clean();
    double hydraulic_flow = setting.flow_lph;
    double thermal_flow = setting.flow_lph;
    ServerHealthLanes lanes;
    if (degraded) {
        expect(health->pump_flow_factor >= 0.0 &&
                   health->pump_flow_factor <= 1.0,
               "pump flow factor must be in [0, 1]");
        expect(!health->hasServerLanes() || health->numServers() == n,
               "expected ", n, " server healths, got ",
               health->numServers());
        hydraulic_flow = setting.flow_lph * health->pump_flow_factor;
        thermal_flow = std::max(hydraulic_flow, kStagnantFlowLph);
        lanes = health->lanes();
    }

    const ServerBlock::Coeffs c = block_.coefficients(
        thermal_flow, setting.t_in_c, params_.cold_source_c);
    block_.evaluate(utils + offset, n, c, lanes, out.servers, offset);
    const ServerBlock::Totals t =
        ServerBlock::reduce(out.servers, offset, n);

    CirculationState &cs = out.circulations[i];
    cs.setting = setting;
    cs.offset = offset;
    cs.count = n;
    cs.delivered_flow_lph = hydraulic_flow;
    cs.cpu_power_w = t.cpu_power_w;
    cs.teg_power_w = t.teg_power_w;
    cs.teg_power_lost_w = t.teg_power_lost_w;
    cs.heat_w = t.heat_w;
    cs.max_die_c = t.max_die_c;
    cs.all_safe = t.all_safe;
    // A degraded pump affects every server in the loop; otherwise
    // only the lanes with their own fault count.
    cs.faulted_servers =
        degraded && health->pump_flow_factor < 1.0 ? n : t.faulted_servers;
    cs.return_c = t.sum_outlet_c / static_cast<double>(n);
    // The centralized pump's head scales with the per-branch flow
    // (branches are parallel), so model it as one pump-equivalent per
    // branch: total power = n * affinity-law power at the delivered
    // branch flow (a degraded pump still runs its electronics; a dead
    // one idles).
    cs.pump_power_w = pump_.power(hydraulic_flow) * static_cast<double>(n);
}

} // namespace cluster
} // namespace h2p
