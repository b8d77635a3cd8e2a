/**
 * @file
 * Binding between INI configuration files and H2PConfig.
 *
 * Every section and key is listed once, in visitConfig() and
 * visitTrace() in config_io.cc. Unknown sections or keys produce a
 * warning through the global logger; a negative value for a count or
 * seed is an h2p::Error naming the key.
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

/**
 * Digest of every INI key of @p config except [obs] (whose output is
 * bit-identical by contract), plus the scripted faults. Checkpoints
 * and sweep journals embed it to refuse a resume into a different
 * model. Parameters only code can set (CPU power fit, cold plate,
 * pump, TEG power fit) are not covered.
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
