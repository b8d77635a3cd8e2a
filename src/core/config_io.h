/**
 * @file
 * Binding between INI configuration files and H2PConfig.
 *
 * Recognized sections/keys (all optional; defaults are the library's
 * calibrated values):
 *
 *   [datacenter] num_servers, servers_per_circulation, cold_source_c
 *   [server]     tegs_per_server
 *   [teg]        voc_slope, voc_offset, resistance_ohm,
 *                thermal_resistance_kpw
 *   [thermal]    gamma_slope, leak_gamma, parasitic_w,
 *                max_operating_c
 *   [optimizer]  t_safe_c, band_c
 *   [lookup]     flow_min_lph, flow_max_lph, flow_points,
 *                tin_min_c, tin_max_c, tin_points, util_points
 *   [plant]      wet_bulb_c, cop, tower_approach_c, cdu_approach_c
 *   [trace]      profile (drastic|irregular|common), seed, servers
 *   [fault]      seed, pump_degrade_per_circ_year,
 *                pump_fail_per_circ_year, teg_open_per_server_year,
 *                teg_short_per_server_year, chiller_outages_per_year,
 *                tower_outages_per_year,
 *                die_sensor_faults_per_circ_year,
 *                flow_sensor_faults_per_circ_year,
 *                fouling_kpw_per_year, outage_duration_hours,
 *                sensor_fault_duration_hours, sensor_drift_c_per_hour,
 *                pump_degraded_flow_factor
 *   [safe_mode]  enabled (0|1), margin_c, min_plausible_c,
 *                max_plausible_c, max_rate_c_per_s, flow_tolerance,
 *                hold_steps, watchdog_enabled (0|1), throttle_factor,
 *                recovery_margin_c, release_step
 *   [balancer]   enabled (0|1), max_move, hysteresis, drain_rate,
 *                max_pulls, drain_on_fallback (0|1),
 *                headroom_floor_c, max_stale_steps (0 disables the
 *                convergence watchdog)
 *   [perf]       optimizer_cache_quantum (0 disables the decision
 *                cache)
 *   [obs]        enabled (0|1), jsonl_path, csv_path,
 *                print_summary (0|1), max_events
 *
 * Unknown sections or keys produce a warning through the global
 * logger (they used to be silently ignored, hiding typos).
 */

#ifndef H2P_CORE_CONFIG_IO_H_
#define H2P_CORE_CONFIG_IO_H_

#include "core/h2p_system.h"
#include "sim/config.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace core {

/** Build an H2PConfig from a parsed configuration. */
H2PConfig configFromIni(const sim::Config &ini);

/** Trace request described by the [trace] section. */
struct TraceRequest
{
    workload::TraceProfile profile = workload::TraceProfile::Drastic;
    uint64_t seed = 2020;
    /** 0 means the profile's paper-scale default. */
    size_t servers = 0;
};

/** Read the [trace] section (defaults when absent). */
TraceRequest traceRequestFromIni(const sim::Config &ini);

/** Generate the trace a request describes. */
workload::UtilizationTrace makeTrace(const TraceRequest &request);

} // namespace core
} // namespace h2p

#endif // H2P_CORE_CONFIG_IO_H_
