#include "core/config_io.h"

#include <cstring>
#include <map>
#include <set>
#include <type_traits>

#include "util/error.h"
#include "util/hash.h"
#include "util/logging.h"

namespace h2p {
namespace core {

namespace {

// Counts and seeds share one reader and one hash feed.
static_assert(std::is_same_v<size_t, uint64_t>,
              "seeds bind through the size_t visitor overloads");

/**
 * The one field list of H2PConfig's INI binding: calls
 * `v(section, key, member)` once per key. configFromIni reads through
 * it, the unknown-key warning collects its keys and configDigest
 * hashes it, so a key added here is parsed, known and digested at
 * once. Every key is optional; defaults are the library's calibrated
 * values. A `[balancer] max_stale_steps` of 0 disables the
 * convergence watchdog; a `[perf] optimizer_cache_quantum` of 0
 * disables the decision cache.
 */
template <typename Visitor>
void
visitConfig(H2PConfig &c, Visitor &v)
{
    auto &dc = c.datacenter;
    v("datacenter", "num_servers", dc.num_servers);
    v("datacenter", "servers_per_circulation", dc.servers_per_circulation);
    v("datacenter", "cold_source_c", dc.cold_source_c);
    v("server", "tegs_per_server", dc.server.tegs_per_server);

    auto &teg = dc.server.teg;
    v("teg", "voc_slope", teg.voc_slope);
    v("teg", "voc_offset", teg.voc_offset);
    v("teg", "resistance_ohm", teg.resistance_ohm);
    v("teg", "thermal_resistance_kpw", teg.thermal_resistance_kpw);

    auto &thermal = dc.server.thermal;
    v("thermal", "gamma_slope", thermal.gamma_slope);
    v("thermal", "leak_gamma", thermal.leak_gamma);
    v("thermal", "parasitic_w", thermal.parasitic_w);
    v("thermal", "max_operating_c", thermal.max_operating_c);

    v("optimizer", "t_safe_c", c.optimizer.t_safe_c);
    v("optimizer", "band_c", c.optimizer.band_c);

    auto &lookup = c.lookup;
    v("lookup", "flow_min_lph", lookup.flow_min_lph);
    v("lookup", "flow_max_lph", lookup.flow_max_lph);
    v("lookup", "flow_points", lookup.flow_points);
    v("lookup", "tin_min_c", lookup.tin_min_c);
    v("lookup", "tin_max_c", lookup.tin_max_c);
    v("lookup", "tin_points", lookup.tin_points);
    v("lookup", "util_points", lookup.util_points);

    auto &plant = dc.plant;
    v("plant", "wet_bulb_c", plant.wet_bulb_c);
    v("plant", "cop", plant.chiller.cop);
    v("plant", "tower_approach_c", plant.tower.approach_c);
    v("plant", "cdu_approach_c", plant.cdu_approach_c);

    auto &f = c.faults;
    v("fault", "seed", f.seed);
    v("fault", "pump_degrade_per_circ_year", f.pump_degrade_per_circ_year);
    v("fault", "pump_fail_per_circ_year", f.pump_fail_per_circ_year);
    v("fault", "teg_open_per_server_year", f.teg_open_per_server_year);
    v("fault", "teg_short_per_server_year", f.teg_short_per_server_year);
    v("fault", "chiller_outages_per_year", f.chiller_outages_per_year);
    v("fault", "tower_outages_per_year", f.tower_outages_per_year);
    v("fault", "die_sensor_faults_per_circ_year",
      f.die_sensor_faults_per_circ_year);
    v("fault", "flow_sensor_faults_per_circ_year",
      f.flow_sensor_faults_per_circ_year);
    v("fault", "fouling_kpw_per_year", f.fouling_kpw_per_year);
    v("fault", "outage_duration_hours", f.outage_duration_hours);
    v("fault", "sensor_fault_duration_hours",
      f.sensor_fault_duration_hours);
    v("fault", "sensor_drift_c_per_hour", f.sensor_drift_c_per_hour);
    v("fault", "pump_degraded_flow_factor", f.pump_degraded_flow_factor);

    auto &sm = c.safe_mode;
    v("safe_mode", "enabled", sm.enabled);
    v("safe_mode", "margin_c", sm.margin_c);
    v("safe_mode", "min_plausible_c", sm.min_plausible_c);
    v("safe_mode", "max_plausible_c", sm.max_plausible_c);
    v("safe_mode", "max_rate_c_per_s", sm.max_rate_c_per_s);
    v("safe_mode", "flow_tolerance", sm.flow_tolerance);
    v("safe_mode", "hold_steps", sm.hold_steps);
    v("safe_mode", "watchdog_enabled", sm.watchdog_enabled);
    v("safe_mode", "throttle_factor", sm.throttle_factor);
    v("safe_mode", "recovery_margin_c", sm.recovery_margin_c);
    v("safe_mode", "release_step", sm.release_step);

    auto &bal = c.balancer;
    v("balancer", "enabled", bal.enabled);
    v("balancer", "max_move", bal.max_move);
    v("balancer", "hysteresis", bal.hysteresis);
    v("balancer", "drain_rate", bal.drain_rate);
    v("balancer", "max_pulls", bal.max_pulls);
    v("balancer", "drain_on_fallback", bal.drain_on_fallback);
    v("balancer", "headroom_floor_c", bal.headroom_floor_c);
    v("balancer", "max_stale_steps", bal.max_stale_steps);

    v("perf", "optimizer_cache_quantum", c.perf.optimizer_cache_quantum);

    auto &obs = c.obs;
    v("obs", "enabled", obs.enabled);
    v("obs", "jsonl_path", obs.jsonl_path);
    v("obs", "csv_path", obs.csv_path);
    v("obs", "print_summary", obs.print_summary);
    v("obs", "max_events", obs.max_events);
}

/** The [trace] keys, visited like visitConfig's. */
template <typename Visitor>
void
visitTrace(TraceRequest &t, Visitor &v)
{
    v("trace", "profile", t.profile);
    v("trace", "seed", t.seed);
    v("trace", "servers", t.servers);
}

/** Reads each visited key, keeping the current value as its default. */
struct Reader
{
    const sim::Config &ini;

    void operator()(const char *s, const char *k, double &x) const
    {
        x = ini.getDouble(s, k, x);
    }

    void operator()(const char *s, const char *k, bool &x) const
    {
        x = ini.getBool(s, k, x);
    }

    void operator()(const char *s, const char *k, std::string &x) const
    {
        x = ini.getString(s, k, x);
    }

    void operator()(const char *s, const char *k, size_t &x) const
    {
        if (!ini.has(s, k))
            return;
        const long value = ini.getLong(s, k);
        // A cast would wrap -1 to 2^64-1: a hang, a huge allocation
        // or a silently different topology.
        expect(value >= 0, "config [", s, "] ", k, ": ", value,
               " is negative; it must be zero or more");
        x = static_cast<size_t>(value);
    }

    void operator()(const char *s, const char *k,
                    workload::TraceProfile &x) const
    {
        if (!ini.has(s, k))
            return;
        const std::string name = ini.getString(s, k);
        for (auto p : {workload::TraceProfile::Drastic,
                       workload::TraceProfile::Irregular,
                       workload::TraceProfile::Common}) {
            if (workload::toString(p) == name) {
                x = p;
                return;
            }
        }
        fatal("config [", s, "] ", k, ": unknown profile `", name,
              "' (drastic|irregular|common)");
    }
};

/**
 * Hashes every visited value except [obs]'s: obs output is
 * bit-identical by contract and its paths are deployment settings.
 */
struct Hasher
{
    util::Fnv1a h;

    template <typename T>
    void operator()(const char *s, const char *, const T &x)
    {
        if (std::strcmp(s, "obs") != 0)
            feed(x);
    }

    void feed(double x) { h.f64(x); }
    void feed(bool x) { h.boolean(x); }
    void feed(size_t x) { h.size(x); }
    void feed(const std::string &x) { h.str(x); }
};

/**
 * Warn about sections/keys the field lists do not name, so a typo like
 * `[perf] thread = 8` is not silently ignored. A warning, not an
 * error, keeps configs compatible across library versions.
 */
void
warnUnknownKeys(const sim::Config &ini)
{
    static const auto known = [] {
        std::map<std::string, std::set<std::string>> keys;
        auto collect = [&keys](const char *s, const char *k, auto &) {
            keys[s].insert(k);
        };
        H2PConfig config;
        visitConfig(config, collect);
        TraceRequest trace;
        visitTrace(trace, collect);
        return keys;
    }();

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
    warnUnknownKeys(ini);
    H2PConfig cfg;
    Reader read{ini};
    visitConfig(cfg, read);
    return cfg;
}

uint64_t
configDigest(const H2PConfig &config)
{
    Hasher hasher;
    // Hashing only reads the config; the visit is shared with the
    // reader.
    visitConfig(const_cast<H2PConfig &>(config), hasher);
    util::Fnv1a &h = hasher.h;
    h.size(config.faults.scripted.size());
    for (const fault::FaultEvent &e : config.faults.scripted) {
        h.f64(e.time_s);
        h.u64(static_cast<uint64_t>(e.kind));
        h.size(e.circulation);
        h.size(e.server);
        h.f64(e.magnitude);
        h.f64(e.duration_s);
    }
    return h.digest();
}

TraceRequest
traceRequestFromIni(const sim::Config &ini)
{
    TraceRequest req;
    Reader read{ini};
    visitTrace(req, read);
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
