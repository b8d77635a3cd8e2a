#include "fault/fault_injector.h"

#include <algorithm>
#include <cstddef>

#include "util/error.h"
#include "util/random.h"

namespace h2p {
namespace fault {

namespace {

// Stable stream identifiers for Rng::fork so that adding a fault
// channel never perturbs another channel's timeline.
enum Stream : uint64_t {
    kStreamPumpDegrade = 1000,
    kStreamPumpFail = 2000,
    kStreamTeg = 3000,
    kStreamPlant = 4000,
    kStreamDieSensor = 5000,
    kStreamFlowSensor = 6000,
};

} // namespace

std::string
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::PumpDegraded:
        return "pump_degraded";
      case FaultKind::PumpFailed:
        return "pump_failed";
      case FaultKind::TegOpenCircuit:
        return "teg_open_circuit";
      case FaultKind::TegShortCircuit:
        return "teg_short_circuit";
      case FaultKind::ChillerOutage:
        return "chiller_outage";
      case FaultKind::TowerOutage:
        return "tower_outage";
      case FaultKind::DieSensorStuck:
        return "die_sensor_stuck";
      case FaultKind::DieSensorDrift:
        return "die_sensor_drift";
      case FaultKind::DieSensorDropout:
        return "die_sensor_dropout";
      case FaultKind::FlowSensorDropout:
        return "flow_sensor_dropout";
    }
    return "unknown";
}

FaultInjector::FaultInjector(const FaultScenarioParams &params,
                             const cluster::Datacenter &dc,
                             double duration_s)
    : params_(params)
{
    expect(duration_s > 0.0, "fault timeline needs a positive duration");
    expect(params.pump_degrade_per_circ_year >= 0.0 &&
               params.pump_fail_per_circ_year >= 0.0 &&
               params.teg_open_per_server_year >= 0.0 &&
               params.teg_short_per_server_year >= 0.0 &&
               params.chiller_outages_per_year >= 0.0 &&
               params.tower_outages_per_year >= 0.0 &&
               params.die_sensor_faults_per_circ_year >= 0.0 &&
               params.flow_sensor_faults_per_circ_year >= 0.0,
           "fault rates must be non-negative");
    expect(params.outage_duration_hours > 0.0 &&
               params.sensor_fault_duration_hours > 0.0,
           "fault durations must be positive");
    expect(params.fouling_kpw_per_year >= 0.0,
           "fouling growth rate must be non-negative");
    expect(params.pump_degraded_flow_factor > 0.0 &&
               params.pump_degraded_flow_factor < 1.0,
           "degraded pump flow factor must be in (0, 1)");

    circulation_sizes_.reserve(dc.numCirculations());
    for (size_t i = 0; i < dc.numCirculations(); ++i)
        circulation_sizes_.push_back(dc.circulationSize(i));

    for (const FaultEvent &e : params.scripted) {
        expect(e.time_s >= 0.0, "scripted fault time must be >= 0");
        if (e.kind != FaultKind::ChillerOutage &&
            e.kind != FaultKind::TowerOutage) {
            expect(e.circulation < circulation_sizes_.size(),
                   "scripted fault targets circulation ", e.circulation,
                   " but there are only ", circulation_sizes_.size());
            if (e.kind == FaultKind::TegOpenCircuit ||
                e.kind == FaultKind::TegShortCircuit) {
                expect(e.server < circulation_sizes_[e.circulation],
                       "scripted fault targets server ", e.server,
                       " of a ", circulation_sizes_[e.circulation],
                       "-server circulation");
            }
        }
    }

    die_sensors_.resize(circulation_sizes_.size());
    flow_sensors_.resize(circulation_sizes_.size());

    generate(duration_s);
    rebuildHealth();
}

void
FaultInjector::generate(double duration_s)
{
    events_ = params_.scripted;

    Rng root(params_.seed);
    const double years = duration_s / kSecondsPerYear;
    const double outage_s = params_.outage_duration_hours * 3600.0;
    const double sensor_s = params_.sensor_fault_duration_hours * 3600.0;

    // Every channel draws a Poisson count of events, each at a uniform
    // onset; `more` then completes the event with its kind's further
    // draws, in order.
    const auto draw = [&](Rng &rng, double mean, const FaultEvent &proto,
                          const auto &more) {
        const int n = rng.poisson(mean);
        for (int k = 0; k < n; ++k) {
            FaultEvent e = proto;
            e.time_s = rng.uniform(0.0, duration_s);
            more(e);
            events_.push_back(e);
        }
    };
    const auto none = [](FaultEvent &) {};

    // Each (channel, circulation) pair draws from its own forked
    // sub-stream, so timelines are stable under parameter changes to
    // other channels.
    for (size_t c = 0; c < circulation_sizes_.size(); ++c) {
        Rng rng = root.fork(kStreamPumpDegrade + c);
        draw(rng, params_.pump_degrade_per_circ_year * years,
             {.kind = FaultKind::PumpDegraded, .circulation = c},
             [&](FaultEvent &e) {
                 e.magnitude = rng.truncNormal(
                     params_.pump_degraded_flow_factor, 0.15, 0.05, 0.85);
             });

        rng = root.fork(kStreamPumpFail + c);
        draw(rng, params_.pump_fail_per_circ_year * years,
             {.kind = FaultKind::PumpFailed, .circulation = c}, none);

        rng = root.fork(kStreamTeg + c);
        for (size_t s = 0; s < circulation_sizes_[c]; ++s) {
            draw(rng, params_.teg_open_per_server_year * years,
                 {.kind = FaultKind::TegOpenCircuit,
                  .circulation = c,
                  .server = s},
                 none);
            draw(rng, params_.teg_short_per_server_year * years,
                 {.kind = FaultKind::TegShortCircuit,
                  .circulation = c,
                  .server = s,
                  .magnitude = 1.0},
                 none);
        }

        rng = root.fork(kStreamDieSensor + c);
        draw(rng, params_.die_sensor_faults_per_circ_year * years,
             {.circulation = c}, [&](FaultEvent &e) {
                 e.duration_s = rng.exponential(1.0 / sensor_s);
                 switch (rng.uniformInt(0, 2)) {
                   case 0:
                     e.kind = FaultKind::DieSensorStuck;
                     break;
                   case 1:
                     e.kind = FaultKind::DieSensorDrift;
                     e.magnitude = params_.sensor_drift_c_per_hour *
                                   rng.uniform(0.5, 1.5) *
                                   (rng.bernoulli(0.5) ? 1.0 : -1.0);
                     break;
                   default:
                     e.kind = FaultKind::DieSensorDropout;
                     break;
                 }
             });

        rng = root.fork(kStreamFlowSensor + c);
        draw(rng, params_.flow_sensor_faults_per_circ_year * years,
             {.kind = FaultKind::FlowSensorDropout, .circulation = c},
             [&](FaultEvent &e) {
                 e.duration_s = rng.exponential(1.0 / sensor_s);
             });
    }

    Rng rng = root.fork(kStreamPlant);
    const auto outage = [&](FaultEvent &e) {
        e.duration_s = rng.exponential(1.0 / outage_s);
    };
    draw(rng, params_.chiller_outages_per_year * years,
         {.kind = FaultKind::ChillerOutage}, outage);
    draw(rng, params_.tower_outages_per_year * years,
         {.kind = FaultKind::TowerOutage}, outage);

    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.time_s != b.time_s)
                             return a.time_s < b.time_s;
                         if (a.circulation != b.circulation)
                             return a.circulation < b.circulation;
                         if (a.server != b.server)
                             return a.server < b.server;
                         return static_cast<int>(a.kind) <
                                static_cast<int>(b.kind);
                     });
}

void
FaultInjector::armSensor(const FaultEvent &e)
{
    SensorFaultWindow w;
    w.start_s = e.time_s;
    w.end_s = e.duration_s > 0.0 ? e.time_s + e.duration_s : e.time_s;
    switch (e.kind) {
      case FaultKind::DieSensorStuck:
        w.kind = SensorFaultKind::Stuck;
        die_sensors_[e.circulation].setFault(w);
        break;
      case FaultKind::DieSensorDrift:
        w.kind = SensorFaultKind::Drift;
        w.drift_per_hour = e.magnitude;
        die_sensors_[e.circulation].setFault(w);
        break;
      case FaultKind::DieSensorDropout:
        w.kind = SensorFaultKind::Dropout;
        die_sensors_[e.circulation].setFault(w);
        break;
      case FaultKind::FlowSensorDropout:
        w.kind = SensorFaultKind::Dropout;
        flow_sensors_[e.circulation].setFault(w);
        break;
      default:
        H2P_ASSERT(false, "not a sensor fault");
    }
}

void
FaultInjector::advanceTo(double time_s)
{
    expect(time_s >= now_, "fault timeline cannot run backwards (",
           now_, " -> ", time_s, ")");
    now_ = time_s;
    while (struck_ < events_.size() && events_[struck_].time_s <= now_) {
        const FaultEvent &e = events_[struck_];
        switch (e.kind) {
          case FaultKind::DieSensorStuck:
          case FaultKind::DieSensorDrift:
          case FaultKind::DieSensorDropout:
          case FaultKind::FlowSensorDropout:
            armSensor(e);
            break;
          default:
            break;
        }
        ++struck_;
    }
    rebuildHealth();
}

void
FaultInjector::rebuildHealth()
{
    // Reset in place: clear() keeps each lane's capacity, so the
    // assign()s below reuse the buffers step after step. Lanes exist
    // only while fouling or a TEG fault needs them, exactly as for a
    // freshly built health, so the kernel picks the same path.
    const size_t num_circ = circulation_sizes_.size();
    health_.plant = hydraulic::PlantHealth{};
    health_.circulations.resize(num_circ);
    for (cluster::CirculationHealth &ch : health_.circulations) {
        ch.pump_flow_factor = 1.0;
        ch.teg_open.clear();
        ch.tegs_shorted.clear();
        ch.fouling_kpw.clear();
    }

    const double now = std::max(now_, 0.0);
    const double fouling =
        params_.fouling_kpw_per_year * now / kSecondsPerYear;
    if (fouling > 0.0) {
        for (size_t c = 0; c < num_circ; ++c) {
            cluster::ServerHealth s;
            s.fouling_kpw = fouling;
            health_.circulations[c].assignServers(
                circulation_sizes_[c], s);
        }
    }

    // The struck-event prefix is small; a full rescan per step keeps
    // overlapping and expiring faults trivially correct.
    for (size_t i = 0; i < struck_; ++i) {
        const FaultEvent &e = events_[i];
        if (!e.activeAt(now))
            continue;
        switch (e.kind) {
          case FaultKind::PumpDegraded: {
            double &f = health_.circulations[e.circulation]
                            .pump_flow_factor;
            f = std::min(f, e.magnitude);
            break;
          }
          case FaultKind::PumpFailed:
            health_.circulations[e.circulation].pump_flow_factor = 0.0;
            break;
          case FaultKind::TegOpenCircuit: {
            cluster::CirculationHealth &ch =
                health_.circulations[e.circulation];
            if (!ch.hasServerLanes())
                ch.resizeServers(circulation_sizes_[e.circulation]);
            ch.teg_open[e.server] = 1;
            break;
          }
          case FaultKind::TegShortCircuit: {
            cluster::CirculationHealth &ch =
                health_.circulations[e.circulation];
            if (!ch.hasServerLanes())
                ch.resizeServers(circulation_sizes_[e.circulation]);
            ch.tegs_shorted[e.server] +=
                std::max<size_t>(1, static_cast<size_t>(e.magnitude));
            break;
          }
          case FaultKind::ChillerOutage:
            health_.plant.chiller_out = true;
            break;
          case FaultKind::TowerOutage:
            health_.plant.tower_out = true;
            break;
          case FaultKind::DieSensorStuck:
          case FaultKind::DieSensorDrift:
          case FaultKind::DieSensorDropout:
          case FaultKind::FlowSensorDropout:
            // Sensor faults corrupt readings, not hardware health;
            // they live in the SensorChannels armed on strike.
            break;
        }
    }
}

void
FaultInjector::visit(util::Archive &ar, double replay_to_s)
{
    ar.count(die_sensors_.size(), "checkpoint circulation count");
    if (ar.loading() && replay_to_s >= 0.0)
        advanceTo(replay_to_s);
    for (size_t c = 0; c < die_sensors_.size(); ++c) {
        die_sensors_[c].visitLatch(ar);
        flow_sensors_[c].visitLatch(ar);
    }
}

sched::SensorReading
FaultInjector::readDie(size_t circ, double true_c)
{
    expect(circ < die_sensors_.size(), "circulation ", circ,
           " out of range");
    return die_sensors_[circ].read(true_c, std::max(now_, 0.0));
}

sched::SensorReading
FaultInjector::readFlow(size_t circ, double true_lph)
{
    expect(circ < flow_sensors_.size(), "circulation ", circ,
           " out of range");
    return flow_sensors_[circ].read(true_lph, std::max(now_, 0.0));
}

} // namespace fault
} // namespace h2p
