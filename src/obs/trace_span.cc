#include "obs/trace_span.h"

#include "util/error.h"

namespace h2p {
namespace obs {

SpanRegistry::SpanId
SpanRegistry::id(const std::string &name)
{
    expect(!name.empty(), "span names must be non-empty");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(name);
    if (it == index_.end()) {
        it = index_.emplace(name, slots_.size()).first;
        slots_.emplace_back();
    }
    return SpanId(&slots_[it->second]);
}

void
SpanRegistry::record(SpanId id,
                     std::chrono::steady_clock::duration elapsed)
{
    Slot *slot = id.slot_;
    if (!slot)
        return;
    const uint64_t elapsed_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    slot->count.fetch_add(1, std::memory_order_relaxed);
    slot->total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    uint64_t seen = slot->min_ns.load(std::memory_order_relaxed);
    while (elapsed_ns < seen &&
           !slot->min_ns.compare_exchange_weak(seen, elapsed_ns,
                                               std::memory_order_relaxed))
        ;
    seen = slot->max_ns.load(std::memory_order_relaxed);
    while (elapsed_ns > seen &&
           !slot->max_ns.compare_exchange_weak(seen, elapsed_ns,
                                               std::memory_order_relaxed))
        ;
}

SpanRegistry::Stat
SpanRegistry::stat(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(name);
    expect(it != index_.end(), "no span named `", name, "'");
    const Slot &slot = slots_[it->second];
    Stat s;
    s.name = name;
    s.count = slot.count.load(std::memory_order_relaxed);
    s.total_ns = slot.total_ns.load(std::memory_order_relaxed);
    s.min_ns =
        s.count > 0 ? slot.min_ns.load(std::memory_order_relaxed) : 0;
    s.max_ns = slot.max_ns.load(std::memory_order_relaxed);
    return s;
}

std::vector<SpanRegistry::Stat>
SpanRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Stat> out;
    out.reserve(index_.size());
    for (const auto &[name, idx] : index_) {
        const Slot &slot = slots_[idx];
        Stat s;
        s.name = name;
        s.count = slot.count.load(std::memory_order_relaxed);
        s.total_ns = slot.total_ns.load(std::memory_order_relaxed);
        s.min_ns = s.count > 0
                       ? slot.min_ns.load(std::memory_order_relaxed)
                       : 0;
        s.max_ns = slot.max_ns.load(std::memory_order_relaxed);
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace obs
} // namespace h2p
