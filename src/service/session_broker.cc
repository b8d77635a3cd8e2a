#include "service/session_broker.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "control/thermal_balancer.h"
#include "core/config_io.h"
#include "core/sweep_engine.h"
#include "sim/config.h"
#include "util/error.h"
#include "util/number_format.h"
#include "util/parallel.h"

namespace h2p {
namespace service {

namespace {

sched::Policy
policyFromName(const std::string &name)
{
    if (name == "original" ||
        name == sched::toString(sched::Policy::TegOriginal))
        return sched::Policy::TegOriginal;
    if (name == "balance" ||
        name == sched::toString(sched::Policy::TegLoadBalance))
        return sched::Policy::TegLoadBalance;
    fatal("unknown policy `", name,
          "' (expected original or balance)");
}

size_t
parseCount(const std::string &token, const char *what)
{
    expect(!token.empty(), what, " is empty");
    size_t value = 0;
    for (char c : token) {
        expect(c >= '0' && c <= '9', what, " `", token,
               "' is not a number");
        expect(value <= (std::numeric_limits<size_t>::max() - 9) / 10,
               what, " `", token, "' is out of range");
        value = value * 10 + static_cast<size_t>(c - '0');
    }
    return value;
}

std::string
stateJson(const cluster::DatacenterState &state, size_t num_servers)
{
    util::TextBuffer out;
    out << "{\"cpu_power_w\":";
    obs::jsonNumber(out, state.cpu_power_w);
    out << ",\"teg_power_w\":";
    obs::jsonNumber(out, state.teg_power_w);
    out << ",\"teg_w_per_server\":";
    obs::jsonNumber(out, state.tegPowerPerServer(num_servers));
    out << ",\"heat_w\":";
    obs::jsonNumber(out, state.heat_w);
    out << ",\"pump_power_w\":";
    obs::jsonNumber(out, state.pump_power_w);
    out << ",\"plant_power_w\":";
    obs::jsonNumber(out, state.plant_power_w);
    out << ",\"faulted_servers\":" << state.faulted_servers
        << ",\"teg_power_lost_w\":";
    obs::jsonNumber(out, state.teg_power_lost_w);
    out << ",\"plant_degraded\":"
        << (state.plant_degraded ? "true" : "false")
        << ",\"all_safe\":" << (state.all_safe ? "true" : "false")
        << "}\n";
    return std::move(out.str());
}

std::string
decisionJson(const sched::ScheduleDecision &decision)
{
    util::TextBuffer out;
    double umean = 0.0, umax = 0.0;
    for (double u : decision.utils) {
        umean += u;
        if (u > umax)
            umax = u;
    }
    if (!decision.utils.empty())
        umean /= static_cast<double>(decision.utils.size());
    out << "{\"util_mean\":";
    obs::jsonNumber(out, umean);
    out << ",\"util_max\":";
    obs::jsonNumber(out, umax);
    out << ",\"settings\":[";
    for (size_t i = 0; i < decision.settings.size(); ++i) {
        out << (i ? "," : "") << "{\"t_in_c\":";
        obs::jsonNumber(out, decision.settings[i].t_in_c);
        out << ",\"flow_lph\":";
        obs::jsonNumber(out, decision.settings[i].flow_lph);
        out << "}";
    }
    out << "]}\n";
    return std::move(out.str());
}

/** Writes RunSummary::visit's fields as the members of one object. */
struct SummaryJsonWriter
{
    util::TextBuffer &out;
    char sep = '{';

    template <typename T>
    void operator()(const char *name, const T &v)
    {
        out << sep << '"' << name << "\":";
        sep = ',';
        if constexpr (std::is_same_v<T, double>) {
            obs::jsonNumber(out, v);
        } else if constexpr (std::is_same_v<T, sched::Policy>) {
            out << '"' << sched::toString(v) << '"';
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
            out << '[';
            for (size_t i = 0; i < v.size(); ++i) {
                out << (i ? "," : "");
                obs::jsonNumber(out, v[i]);
            }
            out << ']';
        } else {
            static_assert(std::is_same_v<T, size_t>);
            out << v;
        }
    }
};

/**
 * The thermal-balancer stage of a session's pipeline, or a loud
 * error: both balancer verbs only make sense against a session whose
 * decide stage runs the autonomous balancer.
 */
control::ThermalBalancer &
findBalancer(core::SimSession &session)
{
    control::ControlPipeline *pipeline = session.pipeline();
    control::ControlStage *stage =
        pipeline->find(control::ThermalBalancer::kName);
    expect(stage != nullptr, "session pipeline `", pipeline->name(),
           "' has no thermal balancer stage; open it with the balance "
           "policy and [balancer] enabled = 1");
    return static_cast<control::ThermalBalancer &>(*stage);
}

/** The balancer verb's body: stats plus the per-circulation view. */
std::string
balancerJson(const control::ThermalBalancer &balancer)
{
    const control::BalancerStats &st = balancer.stats();
    util::TextBuffer out;
    out << "{\"converged\":" << (st.converged ? "true" : "false")
        << ",\"max_abs_dev\":";
    obs::jsonNumber(out, st.max_abs_dev);
    out << ",\"stale_steps\":" << st.stale_steps
        << ",\"migrations\":" << st.migrations
        << ",\"local_moves\":" << st.local_moves
        << ",\"pulls\":" << st.pulls
        << ",\"drains_started\":" << st.drains_started
        << ",\"drains_completed\":" << st.drains_completed
        << ",\"active_drains\":" << st.active_drains
        << ",\"circulations\":[";
    const std::vector<control::CirculationView> &view = balancer.view();
    for (size_t c = 0; c < view.size(); ++c) {
        const control::CirculationView &row = view[c];
        out << (c ? "," : "") << "{\"circ\":" << c << ",\"mode\":\""
            << control::toString(row.mode)
            << "\",\"servers\":" << row.servers << ",\"avg_util\":";
        obs::jsonNumber(out, row.avg_util);
        out << ",\"dev_util\":";
        obs::jsonNumber(out, row.dev_util);
        out << ",\"headroom_c\":";
        obs::jsonNumber(out, row.headroom_c);
        out << ",\"teg_w\":";
        obs::jsonNumber(out, row.teg_w);
        out << ",\"drained_util\":";
        obs::jsonNumber(out, row.drained_util);
        out << "}";
    }
    out << "]}\n";
    return std::move(out.str());
}

/// Split a sweep body into its "---"-separated INI documents (at least
/// one; any of them may be empty).
std::vector<std::string>
splitDocuments(const std::string &body)
{
    std::vector<std::string> docs;
    std::string current;
    std::istringstream is(body);
    std::string line;
    while (std::getline(is, line)) {
        if (line == "---") {
            docs.push_back(current);
            current.clear();
        } else {
            current += line;
            current += '\n';
        }
    }
    docs.push_back(current);
    return docs;
}

} // namespace

std::string
summaryJson(const core::RunSummary &summary)
{
    util::TextBuffer out;
    SummaryJsonWriter writer{out};
    const_cast<core::RunSummary &>(summary).visit(writer);
    out << "}\n";
    return std::move(out.str());
}

/**
 * One live twin, whole once constructed. Declaration order is
 * construction order: the SimSession borrows the system and the
 * trace, so it is declared last (and dies first).
 */
struct SessionBroker::TwinSession
{
    TwinSession(const sim::Config &ini, const StartFn &start)
        : system(core::configFromIni(ini)),
          trace(core::makeTrace(core::traceRequestFromIni(ini))),
          session(start(system, trace))
    {
    }

    /** Set by admit() before the twin is listed. */
    std::string id;
    std::mutex mutex;
    /**
     * The `query state` and `query decision` bodies of the last
     * evaluated step, each encoded on the first query of its kind
     * after it (empty: not encoded yet). Guarded by mutex; both are
     * cleared before every session.step() call, which may write the
     * state and decision and then fail without advancing the cursor.
     */
    std::string state_body;
    std::string decision_body;
    const core::H2PSystem system;
    const workload::UtilizationTrace trace;
    core::SimSession session;
};

/** A listed twin whose mutex is held while this handle lives. */
struct SessionBroker::LockedTwin
{
    std::shared_ptr<TwinSession> twin;
    std::unique_lock<std::mutex> hold;

    TwinSession *operator->() const { return twin.get(); }
};

SessionBroker::SessionBroker(BrokerOptions options)
    : options_(std::move(options)),
      verbs_{{
          {"ping", &SessionBroker::reply<&SessionBroker::doPing>, {}},
          {"open", &SessionBroker::reply<&SessionBroker::doOpen>, {}},
          {"resume", &SessionBroker::reply<&SessionBroker::doResume>, {}},
          {"step", &SessionBroker::reply<&SessionBroker::doStep>, {}},
          {"query", &SessionBroker::reply<&SessionBroker::doQuery>, {}},
          {"checkpoint", &SessionBroker::reply<&SessionBroker::doCheckpoint>,
           {}},
          {"balancer", &SessionBroker::reply<&SessionBroker::doBalancer>,
           {}},
          {"drain", &SessionBroker::reply<&SessionBroker::doDrain>, {}},
          {"close", &SessionBroker::reply<&SessionBroker::doClose>, {}},
          {"sweep", &SessionBroker::doSweep, {}},
          {"stats", &SessionBroker::reply<&SessionBroker::doStats>, {}},
          {"shutdown", &SessionBroker::doShutdown, {}},
      }}
{
    if (options_.obs != nullptr) {
        requests_ = options_.obs->metrics().counter("service.requests");
        sessions_total_ =
            options_.obs->metrics().counter("service.sessions");
        sessions_open_ =
            options_.obs->metrics().gauge("service.sessions_open");
        for (Verb &verb : verbs_)
            verb.span = options_.obs->spans().id(std::string("service.") +
                                                 verb.name);
    }
}

SessionBroker::~SessionBroker() = default;

size_t
SessionBroker::numSessions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

SessionBroker::LockedTwin
SessionBroker::findLocked(const std::string &id) const
{
    std::shared_ptr<TwinSession> twin;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = sessions_.find(id);
        expect(it != sessions_.end(), "unknown session `", id, "'");
        twin = it->second;
    }
    std::unique_lock<std::mutex> hold(twin->mutex);
    return LockedTwin{std::move(twin), std::move(hold)};
}

SessionBroker::LockedTwin
SessionBroker::admit(const std::string &ini_text, const StartFn &start)
{
    std::istringstream is(ini_text);
    auto twin = std::make_shared<TwinSession>(sim::Config::parse(is), start);
    core::RunGuard guard;
    guard.cancel = options_.cancel;
    guard.step_budget = options_.step_budget;
    if (guard.active())
        twin->session.setGuard(guard);

    // Locked before it is listed: a client that guesses the id waits
    // for this request's reply to be built.
    LockedTwin locked{twin, std::unique_lock<std::mutex>(twin->mutex)};
    std::lock_guard<std::mutex> lock(mutex_);
    expect(sessions_.size() < options_.max_sessions,
           "session limit reached (", options_.max_sessions,
           " open sessions)");
    twin->id = 's' + std::to_string(next_id_++);
    sessions_[twin->id] = twin;
    sessions_total_.add(1);
    sessions_open_.set(static_cast<double>(sessions_.size()));
    return locked;
}

Response
SessionBroker::doPing(const Request &)
{
    return Response::okay({"pong"});
}

Response
SessionBroker::doOpen(const Request &request)
{
    expect(request.args.size() == 1,
           "usage: open <policy> (body: INI configuration)");
    const sched::Policy policy = policyFromName(request.args[0]);
    LockedTwin twin = admit(
        request.body, [policy](const core::H2PSystem &system,
                               const workload::UtilizationTrace &trace) {
            return system.startSession(trace, policy);
        });
    return Response::okay(
        {twin->id, std::to_string(twin->session.numSteps())});
}

Response
SessionBroker::doResume(const Request &request)
{
    expect(request.args.size() == 1,
           "usage: resume <checkpoint-path> (body: INI configuration)");
    const std::string &path = request.args[0];
    LockedTwin twin = admit(
        request.body, [&path](const core::H2PSystem &system,
                              const workload::UtilizationTrace &trace) {
            return system.resumeSession(path, trace);
        });
    return Response::okay({twin->id,
                           std::to_string(twin->session.cursor()),
                           std::to_string(twin->session.numSteps())});
}

Response
SessionBroker::doStep(const Request &request)
{
    expect(request.args.size() == 2, "usage: step <id> <n>");
    LockedTwin twin = findLocked(request.args[0]);
    const size_t n = parseCount(request.args[1], "step count");
    core::SimSession &session = twin->session;
    for (size_t i = 0; i < n && !session.done(); ++i) {
        twin->state_body.clear();
        twin->decision_body.clear();
        session.step();
    }
    return Response::okay(
        {std::to_string(session.cursor()), session.done() ? "1" : "0"});
}

Response
SessionBroker::doQuery(const Request &request)
{
    expect(request.args.size() == 2,
           "usage: query <id> state|decision|summary|jsonl");
    LockedTwin twin = findLocked(request.args[0]);
    const std::string &what = request.args[1];
    core::SimSession &session = twin->session;
    if (what == "state") {
        if (twin->state_body.empty())
            twin->state_body =
                stateJson(session.lastState(),
                          twin->system.config().datacenter.num_servers);
        return Response::okay({}, twin->state_body);
    }
    if (what == "decision") {
        if (twin->decision_body.empty())
            twin->decision_body = decisionJson(session.lastDecision());
        return Response::okay({}, twin->decision_body);
    }
    if (what == "summary") {
        // Progress metadata, available mid-run; the run's final
        // metrics come back from close once the session is done.
        util::TextBuffer out;
        out << "{\"policy\":\"" << sched::toString(session.policy())
            << "\",\"cursor\":" << session.cursor()
            << ",\"steps\":" << session.numSteps()
            << ",\"done\":" << (session.done() ? "true" : "false")
            << "}\n";
        return Response::okay({}, std::move(out.str()));
    }
    if (what == "jsonl") {
        // The exact writer experiment_runner uses for its per-step
        // dump — the byte-for-byte comparison channel.
        std::ostringstream os;
        session.recorder().writeJsonl(os);
        return Response::okay({}, os.str());
    }
    fatal("unknown query channel `", what,
          "' (expected state, decision, summary or jsonl)");
}

Response
SessionBroker::doCheckpoint(const Request &request)
{
    expect(request.args.size() == 2, "usage: checkpoint <id> <path>");
    LockedTwin twin = findLocked(request.args[0]);
    twin->session.saveCheckpoint(request.args[1]);
    return Response::okay();
}

Response
SessionBroker::doBalancer(const Request &request)
{
    expect(request.args.size() == 1, "usage: balancer <id>");
    LockedTwin twin = findLocked(request.args[0]);
    const control::ThermalBalancer &balancer = findBalancer(twin->session);
    const control::BalancerStats &st = balancer.stats();
    return Response::okay({st.converged ? "converged" : "balancing",
                           std::to_string(st.active_drains)},
                          balancerJson(balancer));
}

Response
SessionBroker::doDrain(const Request &request)
{
    expect(request.args.size() == 2 ||
               (request.args.size() == 3 && request.args[2] == "off"),
           "usage: drain <id> <circulation> [off]");
    LockedTwin twin = findLocked(request.args[0]);
    const size_t circ = parseCount(request.args[1], "circulation");
    control::ThermalBalancer &balancer = findBalancer(twin->session);
    if (request.args.size() == 3)
        balancer.cancelDrain(circ);
    else
        balancer.requestDrain(circ);
    return Response::okay(
        {request.args.size() == 3 ? "released" : "draining",
         std::to_string(circ)});
}

Response
SessionBroker::doClose(const Request &request)
{
    expect(request.args.size() == 1, "usage: close <id>");
    std::shared_ptr<TwinSession> twin;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = sessions_.find(request.args[0]);
        expect(it != sessions_.end(), "unknown session `",
               request.args[0], "'");
        twin = std::move(it->second);
        sessions_.erase(it);
        sessions_open_.set(static_cast<double>(sessions_.size()));
    }
    std::lock_guard<std::mutex> lock(twin->mutex);
    if (twin->session.done()) {
        core::RunResult result = twin->session.finish();
        return Response::okay({"finished"},
                              summaryJson(result.summary));
    }
    return Response::okay({"discarded"});
}

void
SessionBroker::doSweep(const Request &request, const Emit &emit)
{
    expect(request.args.size() >= 1 && request.args.size() <= 2,
           "usage: sweep <policy> [workers] (body: INI documents "
           "separated by `---' lines)");
    const sched::Policy policy = policyFromName(request.args[0]);
    core::SweepOptions options;
    // The client's count asks for workers; the host grants at most one
    // per usable CPU.
    options.workers = std::min(
        request.args.size() == 2
            ? parseCount(request.args[1], "worker count")
            : size_t{1},
        util::hardwareThreads());
    options.keep_recorders = false;
    options.cancel = options_.cancel;
    options.obs = options_.obs;

    const std::vector<std::string> docs = splitDocuments(request.body);
    // Traces live here for the duration of the sweep; points borrow.
    std::deque<workload::UtilizationTrace> traces;
    std::vector<core::SweepPoint> grid;
    for (size_t i = 0; i < docs.size(); ++i) {
        // An empty document would run the default configuration, which
        // nobody sent.
        expect(docs[i].find_first_not_of(" \t\r\n") != std::string::npos,
               "sweep body document ", i, " is empty");
        std::istringstream is(docs[i]);
        const sim::Config ini = sim::Config::parse(is);
        core::SweepPoint point;
        point.config = core::configFromIni(ini);
        traces.push_back(core::makeTrace(core::traceRequestFromIni(ini)));
        point.trace = &traces.back();
        point.policy = policy;
        point.label = "point" + std::to_string(i);
        grid.push_back(std::move(point));
    }

    core::SweepEngine engine(options);
    core::SweepResult result = engine.run(
        grid, [&emit](const core::SweepPointResult &point) {
            Response r = Response::okay(
                {"point", std::to_string(point.index), point.label,
                 core::toString(point.status)},
                point.status == core::PointStatus::Completed
                    ? summaryJson(point.summary)
                    : std::string());
            emit(r, true);
        });
    size_t completed = 0;
    for (const core::SweepPointResult &point : result.points)
        if (point.status == core::PointStatus::Completed)
            ++completed;
    emit(Response::okay({"done", std::to_string(completed),
                         std::to_string(result.quarantined),
                         result.cancelled ? "1" : "0"}),
         false);
}

Response
SessionBroker::doStats(const Request &request)
{
    expect(request.args.empty(), "usage: stats");
    const uint64_t handled = handled_.load(std::memory_order_relaxed);
    size_t open;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open = sessions_.size();
    }
    // Body: every service.* metric the obs registry holds — the
    // broker's own counters plus whatever transport (service::Server)
    // registered — so loadgen runs are explainable from the
    // stats verb alone. Histograms report count/mean/max sidecars.
    std::string body;
    if (options_.obs != nullptr) {
        const obs::MetricsRegistry &m = options_.obs->metrics();
        util::TextBuffer out;
        out << "{";
        bool first = true;
        const auto append = [&out, &first](const std::string &name) {
            out << (first ? "" : ",") << "\"" << name << "\":";
            first = false;
        };
        for (const auto &c : m.counters())
            if (c.name.rfind("service.", 0) == 0) {
                append(c.name);
                out << c.value;
            }
        for (const auto &g : m.gauges())
            if (g.name.rfind("service.", 0) == 0) {
                append(g.name);
                obs::jsonNumber(out, g.value);
            }
        for (const auto &h : m.histograms())
            if (h.name.rfind("service.", 0) == 0) {
                append(h.name);
                out << "{\"count\":" << h.count << ",\"mean\":";
                obs::jsonNumber(
                    out, h.count > 0
                             ? h.sum / static_cast<double>(h.count)
                             : 0.0);
                out << ",\"max\":";
                obs::jsonNumber(out, h.max);
                out << "}";
            }
        out << "}\n";
        body = std::move(out.str());
    }
    return Response::okay(
        {std::to_string(open), std::to_string(handled)},
        std::move(body));
}

void
SessionBroker::doShutdown(const Request &, const Emit &emit)
{
    emit(Response::okay(), false);
    if (on_shutdown_)
        on_shutdown_();
}

void
SessionBroker::handle(const Request &request, const Emit &emit)
{
    handled_.fetch_add(1, std::memory_order_relaxed);
    requests_.add(1);
    for (const Verb &verb : verbs_) {
        if (request.verb != verb.name)
            continue;
        obs::TraceSpan span(
            options_.obs != nullptr ? &options_.obs->spans() : nullptr,
            verb.span);
        try {
            (this->*verb.run)(request, emit);
        } catch (const Error &e) {
            emit(Response::error(e.what()), false);
        }
        return;
    }
    emit(Response::error("unknown verb `" + request.verb + "'"), false);
}

Response
SessionBroker::handleOne(const Request &request)
{
    Response last = Response::error("no response emitted");
    handle(request, [&last](const Response &r, bool) { last = r; });
    return last;
}

} // namespace service
} // namespace h2p
