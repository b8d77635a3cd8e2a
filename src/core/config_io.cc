#include "core/config_io.h"

#include <map>
#include <set>

#include "util/error.h"
#include "util/logging.h"

namespace h2p {
namespace core {

namespace {

/**
 * Warn about sections/keys no binder reads. A typo like
 * `[perf] thread = 8` used to be silently ignored — the run proceeded
 * serially and the user had no idea; a warning names the offender.
 * This stays a warning (not an error) so configs remain forward- and
 * backward-compatible across library versions.
 */
void
warnUnknownKeys(const sim::Config &ini)
{
    static const std::map<std::string, std::set<std::string>> known = {
        {"datacenter",
         {"num_servers", "servers_per_circulation", "cold_source_c"}},
        {"server", {"tegs_per_server"}},
        {"teg",
         {"voc_slope", "voc_offset", "resistance_ohm",
          "thermal_resistance_kpw"}},
        {"thermal",
         {"gamma_slope", "leak_gamma", "parasitic_w",
          "max_operating_c"}},
        {"optimizer", {"t_safe_c", "band_c"}},
        {"lookup",
         {"flow_min_lph", "flow_max_lph", "flow_points", "tin_min_c",
          "tin_max_c", "tin_points", "util_points"}},
        {"plant",
         {"wet_bulb_c", "cop", "tower_approach_c", "cdu_approach_c"}},
        {"trace", {"profile", "seed", "servers"}},
        {"fault",
         {"seed", "pump_degrade_per_circ_year",
          "pump_fail_per_circ_year", "teg_open_per_server_year",
          "teg_short_per_server_year", "chiller_outages_per_year",
          "tower_outages_per_year", "die_sensor_faults_per_circ_year",
          "flow_sensor_faults_per_circ_year", "fouling_kpw_per_year",
          "outage_duration_hours", "sensor_fault_duration_hours",
          "sensor_drift_c_per_hour", "pump_degraded_flow_factor"}},
        {"safe_mode",
         {"enabled", "margin_c", "min_plausible_c", "max_plausible_c",
          "max_rate_c_per_s", "flow_tolerance", "hold_steps",
          "watchdog_enabled", "throttle_factor", "recovery_margin_c",
          "release_step"}},
        {"balancer",
         {"enabled", "max_move", "hysteresis", "drain_rate",
          "max_pulls", "drain_on_fallback", "headroom_floor_c",
          "max_stale_steps"}},
        {"perf", {"optimizer_cache_quantum"}},
        {"obs",
         {"enabled", "jsonl_path", "csv_path", "print_summary",
          "max_events"}},
    };

    for (const std::string &s : ini.sections()) {
        auto it = known.find(s);
        if (it == known.end()) {
            warn("config: unknown section [", s, "] is ignored");
            continue;
        }
        for (const std::string &k : ini.keys(s)) {
            if (it->second.count(k) == 0)
                warn("config: unknown key [", s, "] ", k,
                     " is ignored (typo?)");
        }
    }
}

} // namespace

H2PConfig
configFromIni(const sim::Config &ini)
{
    H2PConfig cfg;
    warnUnknownKeys(ini);

    auto &dc = cfg.datacenter;
    dc.num_servers = static_cast<size_t>(ini.getLong(
        "datacenter", "num_servers",
        static_cast<long>(dc.num_servers)));
    dc.servers_per_circulation = static_cast<size_t>(ini.getLong(
        "datacenter", "servers_per_circulation",
        static_cast<long>(dc.servers_per_circulation)));
    dc.cold_source_c = ini.getDouble("datacenter", "cold_source_c",
                                     dc.cold_source_c);

    auto &server = dc.server;
    server.tegs_per_server = static_cast<size_t>(
        ini.getLong("server", "tegs_per_server",
                    static_cast<long>(server.tegs_per_server)));

    auto &teg = server.teg;
    teg.voc_slope = ini.getDouble("teg", "voc_slope", teg.voc_slope);
    teg.voc_offset =
        ini.getDouble("teg", "voc_offset", teg.voc_offset);
    teg.resistance_ohm =
        ini.getDouble("teg", "resistance_ohm", teg.resistance_ohm);
    teg.thermal_resistance_kpw = ini.getDouble(
        "teg", "thermal_resistance_kpw", teg.thermal_resistance_kpw);

    auto &thermal = server.thermal;
    thermal.gamma_slope =
        ini.getDouble("thermal", "gamma_slope", thermal.gamma_slope);
    thermal.leak_gamma =
        ini.getDouble("thermal", "leak_gamma", thermal.leak_gamma);
    thermal.parasitic_w =
        ini.getDouble("thermal", "parasitic_w", thermal.parasitic_w);
    thermal.max_operating_c = ini.getDouble(
        "thermal", "max_operating_c", thermal.max_operating_c);

    auto &opt = cfg.optimizer;
    opt.t_safe_c = ini.getDouble("optimizer", "t_safe_c", opt.t_safe_c);
    opt.band_c = ini.getDouble("optimizer", "band_c", opt.band_c);

    auto &lookup = cfg.lookup;
    lookup.flow_min_lph =
        ini.getDouble("lookup", "flow_min_lph", lookup.flow_min_lph);
    lookup.flow_max_lph =
        ini.getDouble("lookup", "flow_max_lph", lookup.flow_max_lph);
    lookup.flow_points = static_cast<size_t>(
        ini.getLong("lookup", "flow_points",
                    static_cast<long>(lookup.flow_points)));
    lookup.tin_min_c =
        ini.getDouble("lookup", "tin_min_c", lookup.tin_min_c);
    lookup.tin_max_c =
        ini.getDouble("lookup", "tin_max_c", lookup.tin_max_c);
    lookup.tin_points = static_cast<size_t>(
        ini.getLong("lookup", "tin_points",
                    static_cast<long>(lookup.tin_points)));
    lookup.util_points = static_cast<size_t>(
        ini.getLong("lookup", "util_points",
                    static_cast<long>(lookup.util_points)));

    auto &plant = dc.plant;
    plant.wet_bulb_c =
        ini.getDouble("plant", "wet_bulb_c", plant.wet_bulb_c);
    plant.chiller.cop = ini.getDouble("plant", "cop", plant.chiller.cop);
    plant.tower.approach_c = ini.getDouble("plant", "tower_approach_c",
                                           plant.tower.approach_c);
    plant.cdu_approach_c = ini.getDouble("plant", "cdu_approach_c",
                                         plant.cdu_approach_c);

    auto &faults = cfg.faults;
    faults.seed = static_cast<uint64_t>(ini.getLong(
        "fault", "seed", static_cast<long>(faults.seed)));
    faults.pump_degrade_per_circ_year =
        ini.getDouble("fault", "pump_degrade_per_circ_year",
                      faults.pump_degrade_per_circ_year);
    faults.pump_fail_per_circ_year =
        ini.getDouble("fault", "pump_fail_per_circ_year",
                      faults.pump_fail_per_circ_year);
    faults.teg_open_per_server_year =
        ini.getDouble("fault", "teg_open_per_server_year",
                      faults.teg_open_per_server_year);
    faults.teg_short_per_server_year =
        ini.getDouble("fault", "teg_short_per_server_year",
                      faults.teg_short_per_server_year);
    faults.chiller_outages_per_year =
        ini.getDouble("fault", "chiller_outages_per_year",
                      faults.chiller_outages_per_year);
    faults.tower_outages_per_year =
        ini.getDouble("fault", "tower_outages_per_year",
                      faults.tower_outages_per_year);
    faults.die_sensor_faults_per_circ_year =
        ini.getDouble("fault", "die_sensor_faults_per_circ_year",
                      faults.die_sensor_faults_per_circ_year);
    faults.flow_sensor_faults_per_circ_year =
        ini.getDouble("fault", "flow_sensor_faults_per_circ_year",
                      faults.flow_sensor_faults_per_circ_year);
    faults.fouling_kpw_per_year =
        ini.getDouble("fault", "fouling_kpw_per_year",
                      faults.fouling_kpw_per_year);
    faults.outage_duration_hours =
        ini.getDouble("fault", "outage_duration_hours",
                      faults.outage_duration_hours);
    faults.sensor_fault_duration_hours =
        ini.getDouble("fault", "sensor_fault_duration_hours",
                      faults.sensor_fault_duration_hours);
    faults.sensor_drift_c_per_hour =
        ini.getDouble("fault", "sensor_drift_c_per_hour",
                      faults.sensor_drift_c_per_hour);
    faults.pump_degraded_flow_factor =
        ini.getDouble("fault", "pump_degraded_flow_factor",
                      faults.pump_degraded_flow_factor);

    auto &sm = cfg.safe_mode;
    sm.enabled = ini.getBool("safe_mode", "enabled", sm.enabled);
    sm.margin_c = ini.getDouble("safe_mode", "margin_c", sm.margin_c);
    sm.min_plausible_c = ini.getDouble("safe_mode", "min_plausible_c",
                                       sm.min_plausible_c);
    sm.max_plausible_c = ini.getDouble("safe_mode", "max_plausible_c",
                                       sm.max_plausible_c);
    sm.max_rate_c_per_s = ini.getDouble("safe_mode", "max_rate_c_per_s",
                                        sm.max_rate_c_per_s);
    sm.flow_tolerance = ini.getDouble("safe_mode", "flow_tolerance",
                                      sm.flow_tolerance);
    sm.hold_steps = static_cast<size_t>(ini.getLong(
        "safe_mode", "hold_steps", static_cast<long>(sm.hold_steps)));
    sm.watchdog_enabled = ini.getBool("safe_mode", "watchdog_enabled",
                                      sm.watchdog_enabled);
    sm.throttle_factor = ini.getDouble("safe_mode", "throttle_factor",
                                       sm.throttle_factor);
    sm.recovery_margin_c = ini.getDouble(
        "safe_mode", "recovery_margin_c", sm.recovery_margin_c);
    sm.release_step =
        ini.getDouble("safe_mode", "release_step", sm.release_step);

    auto &bal = cfg.balancer;
    bal.enabled = ini.getBool("balancer", "enabled", bal.enabled);
    bal.max_move =
        ini.getDouble("balancer", "max_move", bal.max_move);
    bal.hysteresis =
        ini.getDouble("balancer", "hysteresis", bal.hysteresis);
    bal.drain_rate =
        ini.getDouble("balancer", "drain_rate", bal.drain_rate);
    bal.max_pulls = static_cast<size_t>(ini.getLong(
        "balancer", "max_pulls", static_cast<long>(bal.max_pulls)));
    bal.drain_on_fallback = ini.getBool(
        "balancer", "drain_on_fallback", bal.drain_on_fallback);
    bal.headroom_floor_c = ini.getDouble(
        "balancer", "headroom_floor_c", bal.headroom_floor_c);
    bal.max_stale_steps = static_cast<size_t>(
        ini.getLong("balancer", "max_stale_steps",
                    static_cast<long>(bal.max_stale_steps)));

    auto &perf = cfg.perf;
    perf.optimizer_cache_quantum =
        ini.getDouble("perf", "optimizer_cache_quantum",
                      perf.optimizer_cache_quantum);

    auto &obs = cfg.obs;
    obs.enabled = ini.getBool("obs", "enabled", obs.enabled);
    obs.jsonl_path = ini.getString("obs", "jsonl_path", obs.jsonl_path);
    obs.csv_path = ini.getString("obs", "csv_path", obs.csv_path);
    obs.print_summary =
        ini.getBool("obs", "print_summary", obs.print_summary);
    obs.max_events = static_cast<size_t>(ini.getLong(
        "obs", "max_events", static_cast<long>(obs.max_events)));
    return cfg;
}

TraceRequest
traceRequestFromIni(const sim::Config &ini)
{
    TraceRequest req;
    std::string profile =
        ini.getString("trace", "profile", "drastic");
    if (profile == "drastic")
        req.profile = workload::TraceProfile::Drastic;
    else if (profile == "irregular")
        req.profile = workload::TraceProfile::Irregular;
    else if (profile == "common")
        req.profile = workload::TraceProfile::Common;
    else
        fatal("config [trace] profile: unknown profile `", profile,
              "' (drastic|irregular|common)");
    req.seed = static_cast<uint64_t>(
        ini.getLong("trace", "seed", static_cast<long>(req.seed)));
    req.servers = static_cast<size_t>(ini.getLong(
        "trace", "servers", static_cast<long>(req.servers)));
    return req;
}

workload::UtilizationTrace
makeTrace(const TraceRequest &request)
{
    workload::TraceGenerator gen(request.seed);
    return gen.generateProfile(request.profile, request.servers);
}

} // namespace core
} // namespace h2p
