#include "cluster/datacenter.h"

#include <algorithm>

#include "util/error.h"
#include "util/hash.h"

namespace h2p {
namespace cluster {

Datacenter::Datacenter(const DatacenterParams &params)
    : params_(params),
      circulation_(std::max<size_t>(1, params.servers_per_circulation),
                   params.server, params.pump),
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

    // Only the last circulation can be smaller; build its model once.
    size_t tail = circulation_sizes_.back();
    if (tail != circulation_.size())
        tail_circulation_.emplace(tail, params.server, params.pump);
}

void
Datacenter::setObservability(obs::Observability *obs)
{
    obs_ = obs;
    if (obs_ != nullptr)
        span_evaluate_ = obs_->spans().id("dc.evaluate");
    else
        span_evaluate_ = obs::SpanRegistry::SpanId{};
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

    obs::SpanRegistry *spans =
        obs_ != nullptr ? &obs_->spans() : nullptr;
    obs::TraceSpan eval_span(spans, span_evaluate_);

    const bool clean = health == nullptr || health->clean();
    if (!clean) {
        expect(health->circulations.empty() ||
                   health->circulations.size() == num_circ,
               "expected ", num_circ, " circulation healths, got ",
               health->circulations.size());
    }

    out.circulations.resize(num_circ);

    static const CirculationHealth healthy_circulation;

    for (size_t i = 0; i < num_circ; ++i) {
        const size_t n = circulation_sizes_[i];
        const double *u = utils.data() + circulation_offsets_[i];
        const Circulation &model =
            n == circulation_.size() ? circulation_ : *tail_circulation_;
        if (clean) {
            model.evaluateInto(u, n, settings[i], params_.cold_source_c,
                               nullptr, out.circulations[i]);
            continue;
        }
        const CirculationHealth &ch =
            health->circulations.empty() ? healthy_circulation
                                         : health->circulations[i];
        // A plant outage warms the supply every loop actually gets.
        CoolingSetting setting = settings[i];
        setting.t_in_c =
            plant_.achievableSupply(setting.t_in_c, health->plant);
        model.evaluateInto(u, n, setting, params_.cold_source_c, &ch,
                           out.circulations[i]);
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
        total_flow_lph =
            std::max(total_flow_lph, Circulation::kStagnantFlowLph);
        hydraulic::PlantPower pp =
            plant_.power(out.heat_w, min_supply_c, total_flow_lph,
                         health->plant);
        out.plant_power_w = pp.total();
    }
}

} // namespace cluster
} // namespace h2p
