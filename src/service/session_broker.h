/**
 * @file
 * The daemon's brain: named digital-twin sessions behind the wire
 * verbs, independent of any socket.
 *
 * A SessionBroker owns a set of live twin sessions — each a full
 * H2PSystem + trace + SimSession built from a client-supplied INI
 * configuration — and executes parsed protocol Requests against
 * them. A twin is listed only once all of it is built: an open or
 * resume that fails leaves the table as it was. The transport layer (service::Server, or a test driving the
 * broker in-process) only parses frames and forwards Requests here;
 * every protocol-level failure comes back as an error Response, never
 * an exception, so one misbehaving client cannot take the daemon
 * down.
 *
 * Thread model: handle() is safe to call from any number of
 * connection threads concurrently. A broker-wide mutex guards the
 * session table; each session carries its own mutex serializing
 * steps/queries against it, so two clients sharing a session id see
 * sequentially consistent state while sessions of different clients
 * step in parallel. A twin encodes its `query state` body once per
 * evaluated step, under its mutex, and answers later state queries
 * with those bytes until its next step() call.
 *
 * Verbs:
 *
 *   ping                          -> ok pong
 *   open <policy>                 -> ok <id> <steps>        body: INI
 *   resume <checkpoint>           -> ok <id> <cursor> <steps> body: INI
 *                                    (built-in control only: a
 *                                    custom-control checkpoint is
 *                                    refused)
 *   step <id> <n>                 -> ok <cursor> <done 0|1>
 *   query <id> state|decision|summary|jsonl -> ok, body JSON/JSONL
 *   checkpoint <id> <path>        -> ok
 *   balancer <id>                 -> ok converged|balancing
 *                                    <active-drains>, body JSON: the
 *                                    balancer's central view (one row
 *                                    per circulation) and counters
 *   drain <id> <circ> [off]       -> ok draining|released <circ>
 *                                    (latches/releases an operator
 *                                    drain on the session's thermal
 *                                    balancer stage)
 *   close <id>                    -> ok finished|discarded [body JSON]
 *   sweep <policy> [workers]      -> streamed: ok point ... per point,
 *                                    then ok done <completed>
 *                                    <quarantined> <cancelled 0|1>
 *                                    body: INI docs split by "---";
 *                                    workers capped at the usable CPUs
 *   stats                         -> ok <open-sessions> <requests>
 *   shutdown                      -> ok (invokes the setOnShutdown
 *                                    hook)
 *
 * Admission control: at most max_sessions concurrent sessions (open
 * and resume beyond it fail with an error response), and an optional
 * per-session step budget enforced through the session's RunGuard.
 */

#ifndef H2P_SERVICE_SESSION_BROKER_H_
#define H2P_SERVICE_SESSION_BROKER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/h2p_system.h"
#include "obs/observability.h"
#include "service/protocol.h"
#include "util/cancellation.h"

namespace h2p {
namespace service {

/** The `close` and `sweep` point body: RunSummary::visit's fields as
 * one JSON line, doubles as util::writeDouble's %.17g (they parse back
 * bit-equal). */
std::string summaryJson(const core::RunSummary &summary);

/** Knobs of a broker instance. */
struct BrokerOptions
{
    /** Concurrent-session cap; open/resume beyond it are refused. */
    size_t max_sessions = 8;
    /**
     * Step budget per session (0 = unlimited), counted from open or
     * resume and enforced by the session's RunGuard: the step verb
     * reports a budget violation as an error response.
     */
    size_t step_budget = 0;
    /**
     * Daemon-wide shutdown/cancellation latch (null = none;
     * borrowed). Wired into every session guard and sweep, so a
     * SIGTERM interrupts in-flight work at the next step boundary.
     */
    const util::CancelToken *cancel = nullptr;
    /**
     * Observability sink (null = none; borrowed): counts
     * service.requests and service.sessions, gauges
     * service.sessions_open, and times every known verb under a
     * service.<verb> span (an unknown verb is counted, not timed).
     */
    obs::Observability *obs = nullptr;
};

/** See the file comment. */
class SessionBroker
{
  public:
    explicit SessionBroker(BrokerOptions options = {});
    ~SessionBroker();

    SessionBroker(const SessionBroker &) = delete;
    SessionBroker &operator=(const SessionBroker &) = delete;

    /**
     * Response sink: called once per response, in order. @p more is
     * true while further responses to the same request follow (a
     * sweep's points before its "done"), so a transport can send
     * those as they come and batch the rest.
     */
    using Emit = std::function<void(const Response &, bool more)>;

    /**
     * Execute one request, delivering every response (one for most
     * verbs; one per finished point plus a final "done" for sweep)
     * through @p emit. Thread-safe; never throws for request-level
     * failures.
     */
    void handle(const Request &request, const Emit &emit);

    /** Convenience for single-response verbs: the last response. */
    Response handleOne(const Request &request);

    /** Live sessions right now. */
    size_t numSessions() const;

    /**
     * Install the shutdown-verb hook after construction — the broker
     * is typically built before the Server whose stop it triggers.
     * Not thread-safe against concurrent handle(); set it before
     * serving.
     */
    void setOnShutdown(std::function<void()> on_shutdown)
    {
        on_shutdown_ = std::move(on_shutdown);
    }

  private:
    struct TwinSession;
    struct LockedTwin;

    /** Starts or resumes a twin's session over its system and trace. */
    using StartFn = std::function<core::SimSession(
        const core::H2PSystem &, const workload::UtilizationTrace &)>;

    /** A verb's handler: delivers every response through the sink. */
    using Handler = void (SessionBroker::*)(const Request &, const Emit &);

    /**
     * One wire verb. The span is resolved once, when the broker is
     * built (inert without obs), so a request takes no registry lock
     * and a client's made-up verbs add no span.
     */
    struct Verb
    {
        const char *name;
        Handler run;
        obs::SpanRegistry::SpanId span;
    };

    /** A single-response handler @p F as a Handler. */
    template <Response (SessionBroker::*F)(const Request &)>
    void reply(const Request &request, const Emit &emit)
    {
        emit((this->*F)(request), false);
    }

    Response doPing(const Request &request);
    Response doOpen(const Request &request);
    Response doResume(const Request &request);
    Response doStep(const Request &request);
    Response doQuery(const Request &request);
    Response doCheckpoint(const Request &request);
    Response doBalancer(const Request &request);
    Response doDrain(const Request &request);
    Response doClose(const Request &request);
    void doSweep(const Request &request, const Emit &emit);
    Response doStats(const Request &request);
    void doShutdown(const Request &request, const Emit &emit);

    /**
     * Look up a session and lock its mutex for the returned handle's
     * lifetime, or throw h2p::Error("unknown session ...").
     */
    LockedTwin findLocked(const std::string &id) const;

    /**
     * Build a whole twin from @p ini_text with @p start, wire the
     * broker-wide guard (cancel + step budget) into its session and
     * only then list it, locked; common tail of open/resume.
     */
    LockedTwin admit(const std::string &ini_text, const StartFn &start);

    BrokerOptions options_;
    /** Invoked when a client issues the shutdown verb. */
    std::function<void()> on_shutdown_;
    /** Every verb handle() dispatches, each named once. */
    std::array<Verb, 12> verbs_;
    /** Requests handled since construction (stats verb). */
    std::atomic<uint64_t> handled_{0};
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<TwinSession>> sessions_;
    size_t next_id_ = 1;
    obs::Counter requests_;
    obs::Counter sessions_total_;
    obs::Gauge sessions_open_;
};

} // namespace service
} // namespace h2p

#endif // H2P_SERVICE_SESSION_BROKER_H_
