/**
 * @file
 * Facade bundling the three observability primitives — metrics, span
 * timings and the event log — behind one object that the simulator
 * owns and the instrumented layers share by pointer.
 *
 * The contract (DESIGN.md "Observability"):
 *  - Observation never perturbs simulation state: an enabled run
 *    computes bit-identical results to a disabled one.
 *  - Disabled means absent: instrumented code holds a nullable
 *    `Observability *`; when it is null the per-step cost is a single
 *    predictable branch, and handle-based metric updates are no-ops.
 *  - Exporters (JSONL, CSV, console summary) run once at run end,
 *    never inside the hot loop.
 */

#ifndef H2P_OBS_OBSERVABILITY_H_
#define H2P_OBS_OBSERVABILITY_H_

#include <iosfwd>
#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"

namespace h2p {
namespace util {
class TextBuffer;
}
namespace obs {

/** User-facing knobs, bound from the `[obs]` INI section. */
struct ObsParams
{
    /** Master switch; when false no Observability is constructed. */
    bool enabled = false;
    /** When non-empty, write telemetry (events/spans/metrics) here. */
    std::string jsonl_path;
    /** When non-empty, write a metrics CSV here. */
    std::string csv_path;
    /** Print a metrics/span summary table at run end. */
    bool print_summary = false;
    /** Retained-event bound of the event log. */
    size_t max_events = 65536;

    /** Names every field once: INI keys ([obs]). */
    template <typename V>
    void visit(V &v)
    {
        v("enabled", enabled);
        v("jsonl_path", jsonl_path);
        v("csv_path", csv_path);
        v("print_summary", print_summary);
        v("max_events", max_events);
    }
};

/** Escape @p s for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Append @p x as a JSON number (util::writeDouble's %.17g, which
 * parses back bit-equal); non-finite values become null (JSON has no
 * inf/nan literals).
 */
void jsonNumber(util::TextBuffer &out, double x);

/**
 * One run's worth of telemetry state plus its exporters. Metric and
 * span updates are thread-safe; export methods are not (call them
 * after the run, from one thread).
 */
class Observability
{
  public:
    explicit Observability(const ObsParams &params);

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    const ObsParams &params() const { return params_; }

    MetricsRegistry &metrics() { return metrics_; }
    SpanRegistry &spans() { return spans_; }
    EventLog &events() { return events_; }

    const MetricsRegistry &metrics() const { return metrics_; }
    const SpanRegistry &spans() const { return spans_; }
    const EventLog &events() const { return events_; }

    /**
     * Write events, span statistics, counters, gauges and histograms
     * to @p os as JSON Lines, one `{"type": ...}` object per line.
     */
    void writeJsonl(std::ostream &os) const;

    /** Write counters/gauges/histogram sidecars to @p os as CSV. */
    void writeMetricsCsv(std::ostream &os) const;

    /** Render human-readable summary tables to @p os. */
    void writeSummary(std::ostream &os) const;

  private:
    ObsParams params_;
    MetricsRegistry metrics_;
    SpanRegistry spans_;
    EventLog events_;
};

} // namespace obs
} // namespace h2p

#endif // H2P_OBS_OBSERVABILITY_H_
