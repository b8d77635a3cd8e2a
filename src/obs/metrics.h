/**
 * @file
 * Named metrics for the observability layer: counters, gauges and
 * histograms (reusing stats::Histogram for the binned form).
 *
 * The registry hands out cheap handles that hot loops keep across
 * steps: a Counter or Gauge is one pointer into registry-owned storage
 * and updates with a single relaxed atomic operation, so instrumented
 * code can run on concurrent sweep workers without locking.
 * Registration (name -> slot) takes the registry mutex; slot storage
 * is a deque so handles stay valid as the registry grows.
 *
 * Naming scheme (see DESIGN.md "Observability"): lower-case
 * dot-separated paths, "<subsystem>.<quantity>[_<unit>]", e.g.
 * "optimizer.cache_hits", "sweep.runs", "step.max_die_c".
 *
 * optimizer.cache_misses counts the grid searches a run performed and
 * optimizer.cache_hits the decisions it read from the cooling-decision
 * table, whichever run filled it. Systems of one configuration share
 * that table process-wide (sched::LookupSpaceCache), so like span
 * timings both counts depend on what the process ran before; the
 * results they describe do not.
 */

#ifndef H2P_OBS_METRICS_H_
#define H2P_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats/histogram.h"

namespace h2p {
namespace obs {

class MetricsRegistry;

namespace detail {

/** Registry-owned storage of one histogram metric. */
struct HistogramSlot
{
    HistogramSlot(double lo_edge, double hi_edge, size_t bin_count)
        : histogram(lo_edge, hi_edge, bin_count), lo(lo_edge),
          hi(hi_edge), bins(bin_count)
    {
    }

    std::mutex mutex;
    stats::Histogram histogram;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    // Requested shape, kept to verify repeated registrations agree.
    double lo;
    double hi;
    size_t bins;
};

} // namespace detail

/**
 * A monotonically increasing counter. Default-made handles are
 * inert: add() on them is a no-op, which lets instrumented code keep
 * unconditional handles and pay nothing when observability is off.
 */
class Counter
{
  public:
    Counter() = default;

    /** Increase the counter by @p n (thread-safe, relaxed). */
    void add(uint64_t n = 1) const
    {
        if (slot_)
            slot_->fetch_add(n, std::memory_order_relaxed);
    }

    /** True once resolved by MetricsRegistry::counter(). */
    bool valid() const { return slot_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Counter(std::atomic<uint64_t> *slot) : slot_(slot) {}
    std::atomic<uint64_t> *slot_ = nullptr;
};

/** A last-value-wins gauge; inert when default-made. */
class Gauge
{
  public:
    Gauge() = default;

    /** Set the gauge to @p value (thread-safe, relaxed). */
    void set(double value) const
    {
        if (slot_)
            slot_->store(value, std::memory_order_relaxed);
    }

    /** True once resolved by MetricsRegistry::gauge(). */
    bool valid() const { return slot_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Gauge(std::atomic<double> *slot) : slot_(slot) {}
    std::atomic<double> *slot_ = nullptr;
};

/**
 * A binned distribution with count/sum/min/max sidecars. observe()
 * locks the slot's own mutex (not the registry's), so concurrent
 * observers of different histograms never contend.
 */
class HistogramMetric
{
  public:
    HistogramMetric() = default;

    /** Record one observation; no-op on an inert handle. */
    void observe(double x) const;

    /** True once resolved by MetricsRegistry::histogram(). */
    bool valid() const { return slot_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit HistogramMetric(detail::HistogramSlot *slot) : slot_(slot)
    {
    }
    detail::HistogramSlot *slot_ = nullptr;
};

/**
 * The process- or system-scoped collection of named metrics. All
 * methods are thread-safe; handle operations are lock-free.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Resolve (creating on first use) counter @p name. */
    Counter counter(const std::string &name);

    /** Resolve (creating on first use) gauge @p name. */
    Gauge gauge(const std::string &name);

    /**
     * Resolve (creating on first use) histogram @p name over
     * [@p lo, @p hi) with @p bins equal-width bins. The bounds of an
     * already-registered name must match.
     */
    HistogramMetric histogram(const std::string &name, double lo,
                              double hi, size_t bins);

    /** Current value of counter @p name; throws when absent. */
    uint64_t counterValue(const std::string &name) const;

    /** Current value of gauge @p name; throws when absent. */
    double gaugeValue(const std::string &name) const;

    // Snapshots for the exporters (sorted by name).
    struct CounterValue
    {
        std::string name;
        uint64_t value = 0;
    };
    struct GaugeValue
    {
        std::string name;
        double value = 0.0;
    };
    struct HistogramValue
    {
        std::string name;
        uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        stats::Histogram histogram{0.0, 1.0, 1};
    };

    std::vector<CounterValue> counters() const;
    std::vector<GaugeValue> gauges() const;
    std::vector<HistogramValue> histograms() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, size_t> counter_index_;
    std::deque<std::atomic<uint64_t>> counter_slots_;
    std::map<std::string, size_t> gauge_index_;
    std::deque<std::atomic<double>> gauge_slots_;
    std::map<std::string, size_t> hist_index_;
    std::deque<detail::HistogramSlot> hist_slots_;
};

} // namespace obs
} // namespace h2p

#endif // H2P_OBS_METRICS_H_
