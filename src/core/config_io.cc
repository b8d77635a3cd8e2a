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
    // [obs] output is bit-identical by contract and its paths are
    // deployment settings.
    util::FieldHasher hasher;
    auto results = [&hasher](const char *s, const char *k,
                             const auto &x) {
        if (std::strcmp(s, "obs") != 0)
            hasher(k, x);
    };
    // Hashing only reads the config; the visit is shared with the
    // reader.
    visitConfig(const_cast<H2PConfig &>(config), results);
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
