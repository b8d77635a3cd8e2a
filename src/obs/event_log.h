/**
 * @file
 * Structured event log for discrete occurrences: fault onsets,
 * safe-mode transitions, watchdog trips, run lifecycle markers.
 *
 * Unlike metrics (which aggregate) the event log keeps each occurrence
 * with its simulated timestamp and a small set of named numeric
 * fields, so a run's incident history can be exported to JSONL and
 * replayed or audited after the fact. Capacity is bounded; once full,
 * further events increment a dropped counter instead of growing
 * without limit.
 */

#ifndef H2P_OBS_EVENT_LOG_H_
#define H2P_OBS_EVENT_LOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace h2p {
namespace obs {

/** One discrete, timestamped occurrence. */
struct Event
{
    double time_s = 0.0;  ///< Simulated time of the occurrence.
    long step = 0;        ///< Simulation step index.
    std::string kind;     ///< Category, e.g. "fault", "safe_mode".
    std::string subject;  ///< What it happened to, e.g. "circ3".
    std::string detail;   ///< Free-form human-readable description.
    /// Named numeric payload, e.g. {"magnitude", 0.5}.
    std::vector<std::pair<std::string, double>> fields;
};

/** Thread-safe, capacity-bounded log of Events. */
class EventLog
{
  public:
    /** @p capacity — retained-event bound; must be >= 1. */
    explicit EventLog(size_t capacity = 65536);

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /** Append @p e; counts it as dropped when at capacity. */
    void append(Event e);

    /** Append an Event built from its parts. */
    void append(double time_s, long step, std::string kind,
                std::string subject, std::string detail,
                std::vector<std::pair<std::string, double>> fields = {})
    {
        Event e;
        e.time_s = time_s;
        e.step = step;
        e.kind = std::move(kind);
        e.subject = std::move(subject);
        e.detail = std::move(detail);
        e.fields = std::move(fields);
        append(std::move(e));
    }

    /** Number of retained events. */
    size_t size() const;

    /** Number of events rejected because the log was full. */
    uint64_t dropped() const;

    /** Copy of the retained events, in append order. */
    std::vector<Event> snapshot() const;

    /** Discard all retained events and reset the dropped counter. */
    void clear();

  private:
    const size_t capacity_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    uint64_t dropped_ = 0;
};

} // namespace obs
} // namespace h2p

#endif // H2P_OBS_EVENT_LOG_H_
