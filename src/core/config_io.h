/**
 * @file
 * Binding between INI configuration files and H2PConfig.
 *
 * Every section and key is listed once: visitConfig() pairs each
 * section with the parameter struct whose visit() names its keys, and
 * visitTrace() (config_io.cc) names [trace]'s. The sections are
 * [datacenter], [server], [power] (CPU power fit), [thermal] (CPU
 * thermal model and its cold plate), [teg], [pump], [plant],
 * [optimizer], [lookup], [fault], [safe_mode], [balancer], [perf] and
 * [obs]. Unknown sections or keys produce a warning through the
 * global logger; a negative value for a count or seed is an
 * h2p::Error naming the key.
 */

#ifndef H2P_CORE_CONFIG_IO_H_
#define H2P_CORE_CONFIG_IO_H_

#include "core/h2p_system.h"
#include "sim/config.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace core {

/**
 * The one field list of H2PConfig's INI binding: calls
 * `v(section, key, member)` once per key, every key of a section
 * named by its struct's visit(). configFromIni reads through it, the
 * unknown-key warning collects its keys and configDigest hashes it,
 * so a field added to a visit is parsed, known and digested at once.
 * Every key is optional; defaults are the library's calibrated
 * values. A `[balancer] max_stale_steps` of 0 disables the
 * convergence watchdog; a `[perf] optimizer_cache_quantum` of 0
 * disables the decision cache.
 */
template <typename Visitor>
void
visitConfig(H2PConfig &c, Visitor &v)
{
    auto section = [&v](const char *s, auto &params) {
        auto keyed = [&v, s](const char *k, auto &x) { v(s, k, x); };
        params.visit(keyed);
    };
    cluster::DatacenterParams &dc = c.datacenter;
    v("datacenter", "num_servers", dc.num_servers);
    v("datacenter", "servers_per_circulation", dc.servers_per_circulation);
    v("datacenter", "cold_source_c", dc.cold_source_c);
    v("server", "tegs_per_server", dc.server.tegs_per_server);
    section("power", dc.server.power);
    section("thermal", dc.server.thermal);
    section("teg", dc.server.teg);
    section("pump", dc.pump);
    section("plant", dc.plant);
    section("optimizer", c.optimizer);
    section("lookup", c.lookup);
    section("fault", c.faults);
    section("safe_mode", c.safe_mode);
    section("balancer", c.balancer);
    section("perf", c.perf);
    section("obs", c.obs);
}

/** Build an H2PConfig from a parsed configuration. */
H2PConfig configFromIni(const sim::Config &ini);

/**
 * Digest of every INI key of @p config except [obs] (whose output is
 * bit-identical by contract), plus the scripted faults: the whole
 * model. Checkpoints and sweep journals embed it to refuse a resume
 * into a different model.
 */
uint64_t configDigest(const H2PConfig &config);

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
