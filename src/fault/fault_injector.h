/**
 * @file
 * Deterministic, seeded fault injection on a trace timeline.
 *
 * Real warm-water deployments degrade continuously: pumps wear out,
 * TEG strings go open-circuit, cold plates foul with scale, chillers
 * trip, sensors stick. The FaultInjector schedules such events over a
 * run — either sampled from per-component annual rates (a Poisson
 * process per component, accelerated-aging style) or scripted
 * explicitly — and materializes, for any step of the run, the
 * cluster::DatacenterHealth the datacenter model should be evaluated
 * under plus the corrupted sensor readings the controller sees.
 *
 * The whole timeline is derived up-front from a single 64-bit seed:
 * the same scenario parameters always produce the same event
 * sequence, so every bench can be re-run under a fault scenario
 * reproducibly.
 */

#ifndef H2P_FAULT_FAULT_INJECTOR_H_
#define H2P_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cluster/datacenter.h"
#include "fault/sensor_fault.h"
#include "util/bytes.h"

namespace h2p {
namespace fault {

/** Everything that can break. */
enum class FaultKind {
    /** Pump delivers only a fraction of the command (worn impeller). */
    PumpDegraded,
    /** Pump dead: stagnant trickle only. */
    PumpFailed,
    /** One TEG open-circuits; the whole series string stops. */
    TegOpenCircuit,
    /** One TEG short-circuits; it drops out, the rest generate. */
    TegShortCircuit,
    /** Chiller trips; only free cooling remains. */
    ChillerOutage,
    /** Cooling tower out; every watt goes through the chiller. */
    TowerOutage,
    /** Die-temperature sensor latches its current value. */
    DieSensorStuck,
    /** Die-temperature sensor drifts away from the truth. */
    DieSensorDrift,
    /** Die-temperature sensor stops reporting. */
    DieSensorDropout,
    /** Loop flow meter stops reporting. */
    FlowSensorDropout,
};

/** Human-readable fault name ("pump_failed", ...). */
std::string toString(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent
{
    /** Onset on the trace timeline, seconds. */
    double time_s = 0.0;
    FaultKind kind = FaultKind::PumpDegraded;
    /** Target circulation (ignored by plant-level kinds). */
    size_t circulation = 0;
    /** Target server within the circulation (per-server kinds). */
    size_t server = 0;
    /**
     * Kind-specific magnitude: delivered-flow fraction for
     * PumpDegraded, shorted-device count for TegShortCircuit, drift
     * rate in C/h for DieSensorDrift.
     */
    double magnitude = 0.0;
    /** Fault length, seconds; 0 means permanent. */
    double duration_s = 0.0;

    bool activeAt(double time_s_now) const
    {
        if (time_s_now < time_s)
            return false;
        return duration_s <= 0.0 || time_s_now < time_s + duration_s;
    }
};

/** A fault scenario: annual rates plus scripted events. */
struct FaultScenarioParams
{
    uint64_t seed = 0x4641554cu;

    // Poisson arrival rates, events per component per year. A short
    // trace sees few events at realistic rates; sweeps use
    // accelerated-aging multiples of these.
    double pump_degrade_per_circ_year = 0.0;
    double pump_fail_per_circ_year = 0.0;
    double teg_open_per_server_year = 0.0;
    double teg_short_per_server_year = 0.0;
    double chiller_outages_per_year = 0.0;
    double tower_outages_per_year = 0.0;
    double die_sensor_faults_per_circ_year = 0.0;
    double flow_sensor_faults_per_circ_year = 0.0;

    /** Continuous cold-plate fouling growth on every server, K/W/yr. */
    double fouling_kpw_per_year = 0.0;

    /** Mean plant-outage length, hours (exponential). */
    double outage_duration_hours = 2.0;
    /** Mean sensor-fault length, hours (exponential). */
    double sensor_fault_duration_hours = 6.0;
    /** Scale of sampled die-sensor drift rates, C/h. */
    double sensor_drift_c_per_hour = 4.0;
    /** Mean delivered-flow fraction of a degraded pump. */
    double pump_degraded_flow_factor = 0.35;

    /** Explicit, deterministic events merged into the timeline. */
    std::vector<FaultEvent> scripted;

    /**
     * Names every field but the scripted events once: INI keys
     * ([fault]) and digests.
     */
    template <typename V>
    void visit(V &v)
    {
        v("seed", seed);
        v("pump_degrade_per_circ_year", pump_degrade_per_circ_year);
        v("pump_fail_per_circ_year", pump_fail_per_circ_year);
        v("teg_open_per_server_year", teg_open_per_server_year);
        v("teg_short_per_server_year", teg_short_per_server_year);
        v("chiller_outages_per_year", chiller_outages_per_year);
        v("tower_outages_per_year", tower_outages_per_year);
        v("die_sensor_faults_per_circ_year",
          die_sensor_faults_per_circ_year);
        v("flow_sensor_faults_per_circ_year",
          flow_sensor_faults_per_circ_year);
        v("fouling_kpw_per_year", fouling_kpw_per_year);
        v("outage_duration_hours", outage_duration_hours);
        v("sensor_fault_duration_hours", sensor_fault_duration_hours);
        v("sensor_drift_c_per_hour", sensor_drift_c_per_hour);
        v("pump_degraded_flow_factor", pump_degraded_flow_factor);
    }

    /** True when the scenario can produce any fault at all. */
    bool enabled() const
    {
        return pump_degrade_per_circ_year > 0.0 ||
               pump_fail_per_circ_year > 0.0 ||
               teg_open_per_server_year > 0.0 ||
               teg_short_per_server_year > 0.0 ||
               chiller_outages_per_year > 0.0 ||
               tower_outages_per_year > 0.0 ||
               die_sensor_faults_per_circ_year > 0.0 ||
               flow_sensor_faults_per_circ_year > 0.0 ||
               fouling_kpw_per_year > 0.0 || !scripted.empty();
    }
};

/**
 * Materializes a FaultScenarioParams into a concrete, sorted event
 * timeline for one datacenter and run length, then replays it.
 * advanceTo() must be called with non-decreasing times (the run
 * loop's step times); health() and the sensor read methods then
 * describe the world at that instant.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultScenarioParams &params,
                  const cluster::Datacenter &dc, double duration_s);

    /** The full scheduled timeline, sorted by onset. */
    const std::vector<FaultEvent> &events() const { return events_; }

    /**
     * Replay the timeline up to @p time_s (non-decreasing). The health
     * is rebuilt only when it changes: an event strikes or a timed one
     * expires. Otherwise only the fouling follows the time.
     */
    void advanceTo(double time_s);

    /** Hardware health at the last advanceTo() time. */
    const cluster::DatacenterHealth &health() const { return health_; }

    /** Events whose onset has passed. */
    size_t struckCount() const { return struck_; }

    /** Measure a die temperature through the circulation's sensor. */
    sched::SensorReading readDie(size_t circ, double true_c);

    /** Measure the delivered loop flow through its flow meter. */
    sched::SensorReading readFlow(size_t circ, double true_lph);

    /**
     * Save or load the replay state a checkpoint needs. The timeline
     * itself is recomputed from the parameters: loading first replays
     * it to @p replay_to_s, the time of the last step the saved run
     * completed (negative when it completed none), which re-arms
     * every sensor-fault window exactly as that run did. Only the
     * stuck-at latches, which capture values the run read, travel in
     * the archive: the circulation count, then per circulation the
     * die and the flow channel's latch.
     */
    void visit(util::Archive &ar, double replay_to_s);

    const FaultScenarioParams &params() const { return params_; }

    static constexpr double kSecondsPerYear = 365.0 * 24.0 * 3600.0;

  private:
    void generate(double duration_s);
    /** Health from scratch at now_: every active struck event. */
    void rebuildHealth();
    /** Every loop's fouling at now_. */
    void setFouling();
    void armSensor(const FaultEvent &e);

    FaultScenarioParams params_;
    std::vector<size_t> circulation_sizes_;
    std::vector<FaultEvent> events_;
    size_t struck_ = 0;
    double now_ = -1.0;
    /** When the next active timed event expires (inf: none). */
    double next_expiry_s_ = std::numeric_limits<double>::infinity();
    cluster::DatacenterHealth health_;
    std::vector<SensorChannel> die_sensors_;
    std::vector<SensorChannel> flow_sensors_;
};

} // namespace fault
} // namespace h2p

#endif // H2P_FAULT_FAULT_INJECTOR_H_
