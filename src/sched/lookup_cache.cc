#include "sched/lookup_cache.h"

#include <algorithm>

#include "util/hash.h"

namespace h2p {
namespace sched {

LookupSpaceCache &
LookupSpaceCache::instance()
{
    static LookupSpaceCache cache;
    return cache;
}

uint64_t
LookupSpaceCache::fingerprint(const cluster::ServerParams &server,
                              const LookupSpaceParams &params)
{
    util::Fnv1a h;
    // CPU power model (drives the dynamic power at each grid point).
    h.f64(server.power.scale);
    h.f64(server.power.shift);
    h.f64(server.power.offset);
    // CPU thermal model (die and outlet temperatures).
    h.f64(server.thermal.plate.base_resistance_kpw);
    h.f64(server.thermal.plate.conv_scale);
    h.f64(server.thermal.plate.flow_exponent);
    h.f64(server.thermal.gamma_slope);
    h.f64(server.thermal.leak_gamma);
    h.f64(server.thermal.leak_ref_c);
    h.f64(server.thermal.parasitic_w);
    h.f64(server.thermal.max_operating_c);
    // Grid extents.
    h.size(params.util_points);
    h.f64(params.flow_min_lph);
    h.f64(params.flow_max_lph);
    h.size(params.flow_points);
    h.f64(params.tin_min_c);
    h.f64(params.tin_max_c);
    h.size(params.tin_points);
    return h.digest();
}

std::shared_ptr<const LookupSpace>
LookupSpaceCache::acquire(const cluster::ServerParams &server,
                          const LookupSpaceParams &params)
{
    const uint64_t key = fingerprint(server, params);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = spaces_.find(key);
    if (it != spaces_.end()) {
        ++hits_;
        return it->second.space;
    }

    cluster::Server model(server);
    auto space = std::make_shared<const LookupSpace>(model, params);
    ++builds_;
    spaces_.emplace(key, Entry{space, {}});
    order_.push_back(key);
    while (order_.size() > kCapacity) {
        spaces_.erase(order_.front());
        order_.pop_front();
    }
    return space;
}

std::shared_ptr<DecisionTable>
LookupSpaceCache::decisionTable(const LookupSpace &space,
                                const thermal::TegModule &teg,
                                const OptimizerParams &params)
{
    if (!(params.cache_util_quantum > 0.0))
        return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    auto entry = std::find_if(spaces_.begin(), spaces_.end(),
                              [&](const auto &kv) {
                                  return kv.second.space.get() == &space;
                              });
    if (entry == spaces_.end())
        return std::make_shared<DecisionTable>(space, teg, params);
    std::vector<std::shared_ptr<DecisionTable>> &tables =
        entry->second.tables;
    for (const std::shared_ptr<DecisionTable> &t : tables)
        if (t->serves(space, teg, params))
            return t;
    tables.push_back(std::make_shared<DecisionTable>(space, teg, params));
    if (tables.size() > kCapacity)
        tables.erase(tables.begin());
    return tables.back();
}

size_t
LookupSpaceCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spaces_.size();
}

uint64_t
LookupSpaceCache::builds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return builds_;
}

uint64_t
LookupSpaceCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

void
LookupSpaceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spaces_.clear();
    order_.clear();
    builds_ = 0;
    hits_ = 0;
}

} // namespace sched
} // namespace h2p
