#include "sched/lookup_cache.h"

#include <algorithm>

#include "util/error.h"
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
    // The TEG plays no part in the sampled table.
    util::FieldHasher hasher;
    hasher.fields(server.power);
    hasher.fields(server.thermal);
    hasher.fields(params);
    return hasher.h.digest();
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
                                double band_c, double cold_source_c,
                                double t_safe_c, double quantum)
{
    expect(quantum >= 0.0, "cache quantum must be non-negative");
    if (quantum == 0.0)
        return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    auto entry = std::find_if(spaces_.begin(), spaces_.end(),
                              [&](const auto &kv) {
                                  return kv.second.space.get() == &space;
                              });
    auto make = [&] {
        return std::make_shared<DecisionTable>(space, teg, band_c,
                                               cold_source_c, t_safe_c,
                                               quantum);
    };
    if (entry == spaces_.end())
        return make();
    std::vector<std::shared_ptr<DecisionTable>> &tables =
        entry->second.tables;
    for (const std::shared_ptr<DecisionTable> &t : tables)
        if (t->quantum() == quantum &&
            t->serves(space, teg, band_c, cold_source_c, t_safe_c))
            return t;
    tables.push_back(make());
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
