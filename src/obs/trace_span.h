/**
 * @file
 * RAII scoped timers with thread-safe, named aggregation.
 *
 * A TraceSpan measures the wall time of one scope against a
 * steady_clock and folds it into the per-name statistics of a
 * SpanRegistry (count / total / min / max nanoseconds). Spans nest
 * freely — a nested span and its enclosing span both record — and may
 * be opened concurrently from several threads (sweep workers, service
 * workers): the aggregation is a handful of relaxed atomic operations
 * per close, so a span costs nanoseconds.
 *
 * A span built with a null registry is fully inert (it does not even
 * read the clock), which is how the simulator keeps the disabled
 * observability path zero-cost.
 */

#ifndef H2P_OBS_TRACE_SPAN_H_
#define H2P_OBS_TRACE_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace h2p {
namespace obs {

/**
 * Aggregated timing statistics per span name. Name resolution takes
 * the registry mutex once; recording through a resolved SpanId is
 * lock-free.
 */
class SpanRegistry
{
  public:
    /** Aggregation slot of one span name. */
    struct Slot
    {
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> total_ns{0};
        std::atomic<uint64_t> min_ns{UINT64_MAX};
        std::atomic<uint64_t> max_ns{0};
    };

    /**
     * A resolved span name. Default-made ids are inert; spans opened
     * on them record nothing.
     */
    class SpanId
    {
      public:
        SpanId() = default;

        /** True once resolved by SpanRegistry::id(). */
        bool valid() const { return slot_ != nullptr; }

      private:
        friend class SpanRegistry;
        friend class TraceSpan;
        explicit SpanId(Slot *slot) : slot_(slot) {}
        Slot *slot_ = nullptr;
    };

    /** One name's statistics, snapshot for reporting. */
    struct Stat
    {
        std::string name;
        uint64_t count = 0;
        uint64_t total_ns = 0;
        uint64_t min_ns = 0;
        uint64_t max_ns = 0;

        double meanNs() const
        {
            return count > 0 ? static_cast<double>(total_ns) /
                                   static_cast<double>(count)
                             : 0.0;
        }
    };

    SpanRegistry() = default;
    SpanRegistry(const SpanRegistry &) = delete;
    SpanRegistry &operator=(const SpanRegistry &) = delete;

    /** Resolve (creating on first use) span name @p name. */
    SpanId id(const std::string &name);

    /** Fold one measured duration into @p id's statistics. */
    static void record(SpanId id,
                       std::chrono::steady_clock::duration elapsed);

    /** Statistics of span @p name; throws when absent. */
    Stat stat(const std::string &name) const;

    /** All span statistics, sorted by name. */
    std::vector<Stat> snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, size_t> index_;
    std::deque<Slot> slots_;
};

/**
 * Scoped timer: measures construction-to-destruction (or stop()) wall
 * time and records it into a SpanRegistry slot.
 */
class TraceSpan
{
  public:
    /**
     * Open a span. @p registry may be null (and/or @p id inert), in
     * which case the span does nothing at all.
     */
    TraceSpan(SpanRegistry *registry, SpanRegistry::SpanId id)
        : id_(registry != nullptr ? id : SpanRegistry::SpanId{})
    {
        if (id_.valid())
            start_ = std::chrono::steady_clock::now();
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan() { stop(); }

    /** Close the span early; further stop() calls are no-ops. */
    void stop()
    {
        if (!id_.valid())
            return;
        SpanRegistry::record(id_, std::chrono::steady_clock::now() - start_);
        id_ = SpanRegistry::SpanId{};
    }

  private:
    SpanRegistry::SpanId id_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace h2p

#endif // H2P_OBS_TRACE_SPAN_H_
