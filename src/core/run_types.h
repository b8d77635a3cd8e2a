/**
 * @file
 * Shared configuration and result types of trace-driven runs.
 *
 * Both the H2PSystem facade and the SimSession it steps speak in
 * these types; they live in their own header so the session's header
 * does not depend on the facade (or vice versa).
 */

#ifndef H2P_CORE_RUN_TYPES_H_
#define H2P_CORE_RUN_TYPES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/datacenter.h"
#include "control/thermal_balancer.h"
#include "fault/fault_injector.h"
#include "obs/observability.h"
#include "sched/cooling_optimizer.h"
#include "sched/lookup_space.h"
#include "sched/policy.h"
#include "sched/safe_mode.h"
#include "sim/recorder.h"
#include "util/error.h"

namespace h2p {
namespace core {

/**
 * Hot-path performance knobs ([perf] in INI configs). The optimizer
 * cache changes no simulated server or setting; it quantizes planning
 * utilizations by a quantum far below the control band.
 */
struct PerfParams
{
    /**
     * Planning-utilization quantum of the cooling-optimizer decision
     * cache (sched::DecisionTable); 0 disables it.
     */
    double optimizer_cache_quantum = 1e-3;

    /** Names every field once: INI keys ([perf]) and digests. */
    template <typename V>
    void visit(V &v)
    {
        v("optimizer_cache_quantum", optimizer_cache_quantum);
    }
};

/** Full system configuration. */
struct H2PConfig
{
    cluster::DatacenterParams datacenter;
    sched::LookupSpaceParams lookup;
    sched::OptimizerParams optimizer;
    /** Fault scenario; default (no rates, no script) injects nothing. */
    fault::FaultScenarioParams faults;
    /** Degraded-mode control; disabled by default. */
    sched::SafeModeParams safe_mode;
    /** Hot-path performance knobs. */
    PerfParams perf;
    /**
     * Autonomous thermal balancer ([balancer] in INI configs);
     * disabled by default. When enabled, TEG_LoadBalance runs the
     * balancer stage instead of the static per-circulation mean
     * split.
     */
    control::BalancerParams balancer;
    /**
     * Observability ([obs] in INI configs); disabled by default.
     * Enabling it never changes simulation results — it only collects
     * metrics, span timings and events, and exports them at run end.
     */
    obs::ObsParams obs;
};

/** Summary of one trace-driven run. */
struct RunSummary
{
    /** Scheme that produced this run. */
    sched::Policy policy = sched::Policy::TegOriginal;
    /** Average TEG output per server over the run, W. */
    double avg_teg_w = 0.0;
    /** Peak (per-step cluster-mean) TEG output per server, W. */
    double peak_teg_w = 0.0;
    /** Average CPU power per server, W. */
    double avg_cpu_w = 0.0;
    /** Run-level PRE = total TEG energy / total CPU energy. */
    double pre = 0.0;
    /** Total TEG energy, kWh. */
    double teg_energy_kwh = 0.0;
    /** Total CPU energy, kWh. */
    double cpu_energy_kwh = 0.0;
    /** Total facility plant energy (chiller + tower), kWh. */
    double plant_energy_kwh = 0.0;
    /** Total pump energy, kWh. */
    double pump_energy_kwh = 0.0;
    /** Fraction of intervals with every die at or below maximum. */
    double safe_fraction = 0.0;
    /** Mean chosen inlet temperature across circulations/steps, C. */
    double avg_t_in_c = 0.0;

    // Resilience accounting; all zero (and the vector sized but
    // trivially 1.0 or equal to safe_fraction) on fault-free runs.
    /** Fault events whose onset passed during the run. */
    size_t fault_events = 0;
    /** Thermal-trip watchdog trips (untripped -> tripped). */
    size_t throttle_events = 0;
    /** Work deferred by watchdog throttling, server-hours. */
    double throttled_work_server_hours = 0.0;
    /** Harvest energy lost to TEG faults, kWh. */
    double teg_energy_lost_kwh = 0.0;
    /** Circulation-intervals spent in a non-Normal safe-mode action. */
    size_t safe_mode_steps = 0;
    /** Peak simultaneous hardware-faulted servers. */
    size_t max_faulted_servers = 0;
    /** Per-circulation fraction of intervals with every die safe. */
    std::vector<double> circulation_safe_fraction;

    /** The one field list of a summary: the sweep journal, the summary
     * JSON, the finiteness check and every equality check read it. */
    template <typename V>
    void visit(V &v)
    {
        v("policy", policy);
        expect(static_cast<uint32_t>(policy) <= 1,
               "serialized run summary carries unknown policy ",
               static_cast<uint32_t>(policy));
        v("avg_teg_w", avg_teg_w);
        v("peak_teg_w", peak_teg_w);
        v("avg_cpu_w", avg_cpu_w);
        v("pre", pre);
        v("teg_energy_kwh", teg_energy_kwh);
        v("cpu_energy_kwh", cpu_energy_kwh);
        v("plant_energy_kwh", plant_energy_kwh);
        v("pump_energy_kwh", pump_energy_kwh);
        v("safe_fraction", safe_fraction);
        v("avg_t_in_c", avg_t_in_c);
        v("fault_events", fault_events);
        v("throttle_events", throttle_events);
        v("throttled_work_server_hours", throttled_work_server_hours);
        v("teg_energy_lost_kwh", teg_energy_lost_kwh);
        v("safe_mode_steps", safe_mode_steps);
        v("max_faulted_servers", max_faulted_servers);
        v("circulation_safe_fraction", circulation_safe_fraction);
    }
};

/** Full result: summary plus per-step recorded channels. */
struct RunResult
{
    RunSummary summary;
    /**
     * Recorded channels at the scheduling interval (canonical names
     * in sim/channels.h):
     *   "teg_w_per_server", "cpu_w_per_server", "pre",
     *   "t_in_mean_c", "plant_w", "pump_w", "max_die_c",
     *   "util_mean", "util_max".
     * Runs with faults or safe mode enabled additionally record
     *   "faulted_servers", "teg_w_lost_per_server",
     *   "safe_mode_circulations", "throttled_servers".
     */
    std::shared_ptr<sim::Recorder> recorder;
};

} // namespace core
} // namespace h2p

#endif // H2P_CORE_RUN_TYPES_H_
