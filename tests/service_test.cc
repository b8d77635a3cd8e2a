/**
 * @file
 * Digital-twin service tests: wire-protocol framing and robustness
 * (malformed, truncated and oversized frames, unknown verbs,
 * double-close), broker session lifecycle with byte-identical
 * recorder output against a direct SimSession run — including
 * through a checkpoint/resume cycle — admission control, step
 * budgets, streamed sweeps, concurrent clients hammering one broker,
 * and socket-level serving with clean shutdown.
 */

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <locale>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "control/stages.h"
#include "control/thermal_balancer.h"
#include "core/config_io.h"
#include "core/h2p_system.h"
#include "core/sweep_journal.h"
#include "obs/observability.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_broker.h"
#include "tests/support/fields.h"
#include "tests/support/number_format_reference.h"
#include "util/cancellation.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/socket.h"

namespace h2p {
namespace {

/** The INI every twin in these tests runs from (144-step trace). */
const char *const kIni =
    "[datacenter]\n"
    "num_servers = 40\n"
    "servers_per_circulation = 20\n"
    "[trace]\n"
    "profile = drastic\n"
    "seed = 21\n"
    "servers = 40\n";

/** RAII temp-file path cleaned up on scope exit. */
struct TempPath
{
    explicit TempPath(const std::string &name) : path(name) {}
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

service::Request
makeRequest(const std::string &verb,
            std::vector<std::string> args = {},
            std::string body = std::string())
{
    service::Request req;
    req.verb = verb;
    req.args = std::move(args);
    req.body = std::move(body);
    return req;
}

/** Both ends of a connected AF_UNIX stream pair. */
struct SocketPair
{
    util::Fd a, b;
    SocketPair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = util::Fd(fds[0]);
        b = util::Fd(fds[1]);
    }
};

/** A direct session over kIni: the run a twin's replies are held to. */
struct DirectTwin
{
    explicit DirectTwin(sched::Policy policy)
        : sys(core::configFromIni(ini)),
          trace(core::makeTrace(core::traceRequestFromIni(ini))),
          session(sys.startSession(trace, policy))
    {
    }

    static sim::Config parseIni()
    {
        std::istringstream is(kIni);
        return sim::Config::parse(is);
    }

    /** The `query state` body at @p cursor, stepping there first. */
    std::string stateAt(size_t cursor)
    {
        while (session.cursor() < cursor)
            session.step();
        return oracle::stateJson(session.lastState(),
                                 sys.config().datacenter.num_servers);
    }

    /** The `query decision` body at @p cursor, stepping there first. */
    std::string decisionAt(size_t cursor)
    {
        while (session.cursor() < cursor)
            session.step();
        return oracle::decisionJson(session.lastDecision());
    }

    const sim::Config ini = parseIni();
    core::H2PSystem sys;
    const workload::UtilizationTrace trace;
    core::SimSession session;
};

// ---------------------------------------------------------------------
// Protocol framing and parsing.

TEST(ServiceProtocol, RequestRoundTripsThroughPayload)
{
    service::Request req =
        makeRequest("open", {"original"}, "[trace]\nseed = 7\n");
    service::Request back = service::Request::parse(req.serialize());
    EXPECT_EQ(back.verb, "open");
    ASSERT_EQ(back.args.size(), 1u);
    EXPECT_EQ(back.args[0], "original");
    EXPECT_EQ(back.body, "[trace]\nseed = 7\n");
}

TEST(ServiceProtocol, ResponseRoundTripsOkAndError)
{
    service::Response ok =
        service::Response::okay({"s1", "144"}, "{\"x\":1}\n");
    service::Response back = service::Response::parse(ok.serialize());
    EXPECT_TRUE(back.ok);
    ASSERT_EQ(back.args.size(), 2u);
    EXPECT_EQ(back.args[1], "144");
    EXPECT_EQ(back.body, "{\"x\":1}\n");

    service::Response err =
        service::Response::error("went wrong\nbadly");
    service::Response eback =
        service::Response::parse(err.serialize());
    EXPECT_FALSE(eback.ok);
    // Newlines are folded so the message survives the one-line form.
    EXPECT_EQ(eback.message, "went wrong badly");
}

TEST(ServiceProtocol, MalformedHeadersThrow)
{
    EXPECT_THROW(service::Request::parse(""), Error);
    EXPECT_THROW(service::Request::parse("step  s1\n"), Error);
    EXPECT_THROW(service::Request::parse("step s1 \n"), Error);
    EXPECT_THROW(service::Response::parse("okey\n"), Error);
    EXPECT_THROW(service::Response::parse("\n"), Error);
}

TEST(ServiceProtocol, FramesRoundTripOverSocket)
{
    SocketPair pair;
    service::writeFrame(pair.a, "hello\nworld");
    service::writeFrame(pair.a, "");
    std::string payload;
    ASSERT_TRUE(service::readFrame(pair.b, payload));
    EXPECT_EQ(payload, "hello\nworld");
    ASSERT_TRUE(service::readFrame(pair.b, payload));
    EXPECT_EQ(payload, "");
    pair.a.close();
    EXPECT_FALSE(service::readFrame(pair.b, payload)); // clean EOF
}

TEST(ServiceProtocol, OversizedFrameIsRejectedWithoutAllocating)
{
    SocketPair pair;
    // Forged length prefix far past the cap; no payload follows.
    const uint8_t prefix[4] = {0xff, 0xff, 0xff, 0x7f};
    util::writeAll(pair.a, prefix, sizeof(prefix));
    std::string payload;
    EXPECT_THROW(service::readFrame(pair.b, payload), Error);
}

TEST(ServiceProtocol, TruncatedFrameThrows)
{
    SocketPair pair;
    const uint8_t prefix[4] = {100, 0, 0, 0}; // promises 100 bytes
    util::writeAll(pair.a, prefix, sizeof(prefix));
    util::writeAll(pair.a, "short", 5);
    pair.a.close();
    std::string payload;
    EXPECT_THROW(service::readFrame(pair.b, payload), Error);
}

// ---------------------------------------------------------------------
// Broker lifecycle, driven in-process.

TEST(SessionBroker, UnknownVerbAndUnknownSessionAreErrorResponses)
{
    service::SessionBroker broker;
    service::Response r = broker.handleOne(makeRequest("frobnicate"));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("unknown verb"), std::string::npos);

    r = broker.handleOne(makeRequest("step", {"s99", "1"}));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("unknown session"), std::string::npos);
}

TEST(SessionBroker, UnknownVerbsAddNoSpans)
{
    // A client's made-up verbs get error replies and count as
    // requests, but add no span: each would be a registry slot for
    // the life of the daemon.
    obs::ObsParams params;
    params.enabled = true;
    obs::Observability obs(params);
    service::BrokerOptions options;
    options.obs = &obs;
    service::SessionBroker broker(options);
    ASSERT_TRUE(broker.handleOne(makeRequest("ping")).ok);
    const auto span_names = [&obs] {
        std::vector<std::string> names;
        for (const obs::SpanRegistry::Stat &s : obs.spans().snapshot())
            names.push_back(s.name);
        return names;
    };
    const std::vector<std::string> before = span_names();

    for (int i = 0; i < 100; ++i) {
        service::Response r =
            broker.handleOne(makeRequest("verb" + std::to_string(i)));
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.message.find("unknown verb"), std::string::npos);
    }
    EXPECT_EQ(span_names(), before);
    EXPECT_EQ(obs.metrics().counterValue("service.requests"), 101u);
    EXPECT_EQ(obs.spans().stat("service.ping").count, 1u);
}

TEST(SessionBroker, OpenStepQueryCloseLifecycle)
{
    service::SessionBroker broker;
    service::Response open =
        broker.handleOne(makeRequest("open", {"original"}, kIni));
    ASSERT_TRUE(open.ok) << open.message;
    ASSERT_EQ(open.args.size(), 2u);
    const std::string id = open.args[0];
    EXPECT_EQ(open.args[1], "144");
    EXPECT_EQ(broker.numSessions(), 1u);

    service::Response step =
        broker.handleOne(makeRequest("step", {id, "10"}));
    ASSERT_TRUE(step.ok) << step.message;
    EXPECT_EQ(step.args[0], "10");
    EXPECT_EQ(step.args[1], "0");

    service::Response state =
        broker.handleOne(makeRequest("query", {id, "state"}));
    ASSERT_TRUE(state.ok) << state.message;
    EXPECT_NE(state.body.find("\"teg_power_w\""), std::string::npos);

    service::Response summary =
        broker.handleOne(makeRequest("query", {id, "summary"}));
    ASSERT_TRUE(summary.ok);
    EXPECT_NE(summary.body.find("\"cursor\":10"), std::string::npos);

    service::Response bad =
        broker.handleOne(makeRequest("query", {id, "nope"}));
    EXPECT_FALSE(bad.ok);

    service::Response close =
        broker.handleOne(makeRequest("close", {id}));
    ASSERT_TRUE(close.ok);
    EXPECT_EQ(close.args[0], "discarded"); // not done yet
    EXPECT_EQ(broker.numSessions(), 0u);

    service::Response again =
        broker.handleOne(makeRequest("close", {id}));
    EXPECT_FALSE(again.ok); // double close
    EXPECT_NE(again.message.find("unknown session"),
              std::string::npos);
}

TEST(SessionBroker, AdmissionControlCapsOpenSessions)
{
    service::BrokerOptions options;
    options.max_sessions = 1;
    service::SessionBroker broker(options);
    service::Response first =
        broker.handleOne(makeRequest("open", {"original"}, kIni));
    ASSERT_TRUE(first.ok);
    service::Response second =
        broker.handleOne(makeRequest("open", {"original"}, kIni));
    EXPECT_FALSE(second.ok);
    EXPECT_NE(second.message.find("session limit"), std::string::npos);
    // Closing frees the slot.
    ASSERT_TRUE(
        broker.handleOne(makeRequest("close", {first.args[0]})).ok);
    EXPECT_TRUE(
        broker.handleOne(makeRequest("open", {"original"}, kIni)).ok);
}

TEST(SessionBroker, StepBudgetIsEnforcedThroughTheGuard)
{
    service::BrokerOptions options;
    options.step_budget = 5;
    service::SessionBroker broker(options);
    service::Response open =
        broker.handleOne(makeRequest("open", {"original"}, kIni));
    ASSERT_TRUE(open.ok);
    service::Response step =
        broker.handleOne(makeRequest("step", {open.args[0], "10"}));
    EXPECT_FALSE(step.ok); // budget blew at step 5
    service::Response summary = broker.handleOne(
        makeRequest("query", {open.args[0], "summary"}));
    ASSERT_TRUE(summary.ok);
    EXPECT_NE(summary.body.find("\"cursor\":5"), std::string::npos);
}

TEST(SessionBroker, CancelTokenStopsStepsAtTheBoundary)
{
    util::CancelToken cancel;
    service::BrokerOptions options;
    options.cancel = &cancel;
    service::SessionBroker broker(options);
    service::Response open =
        broker.handleOne(makeRequest("open", {"original"}, kIni));
    ASSERT_TRUE(open.ok);
    cancel.requestCancel();
    service::Response step =
        broker.handleOne(makeRequest("step", {open.args[0], "10"}));
    EXPECT_FALSE(step.ok);
    EXPECT_NE(step.message.find("cancel"), std::string::npos);
}

TEST(SessionBroker, RecorderJsonlMatchesDirectRunByteForByte)
{
    // Direct in-process run over the identical configuration.
    std::istringstream is(kIni);
    const sim::Config ini = sim::Config::parse(is);
    core::H2PSystem sys(core::configFromIni(ini));
    workload::UtilizationTrace trace =
        core::makeTrace(core::traceRequestFromIni(ini));
    core::SimSession session =
        sys.startSession(trace, sched::Policy::TegOriginal);
    session.runToCompletion();
    std::ostringstream direct;
    session.recorder().writeJsonl(direct);

    service::SessionBroker broker;
    service::Response open =
        broker.handleOne(makeRequest("open", {"original"}, kIni));
    ASSERT_TRUE(open.ok) << open.message;
    const std::string id = open.args[0];
    ASSERT_TRUE(
        broker.handleOne(makeRequest("step", {id, "144"})).ok);
    service::Response jsonl =
        broker.handleOne(makeRequest("query", {id, "jsonl"}));
    ASSERT_TRUE(jsonl.ok);
    EXPECT_EQ(jsonl.body, direct.str()); // byte-for-byte
}

/** The text after `"key":` in a one-line JSON object. */
const char *
jsonValueAt(const std::string &json, const std::string &key)
{
    const size_t at = json.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
    return at == std::string::npos ? "" : json.c_str() + at + key.size() + 3;
}

/** The number after `"key":` in a one-line JSON object. */
double
jsonNumberAt(const std::string &json, const std::string &key)
{
    return std::strtod(jsonValueAt(json, key), nullptr);
}

/** The numbers of the array after `"key":` in a JSON object. */
std::vector<double>
jsonArrayAt(const std::string &json, const std::string &key)
{
    std::vector<double> out;
    const size_t at = json.find("\"" + key + "\":[");
    EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
    if (at == std::string::npos)
        return out;
    const char *p = json.c_str() + at + key.size() + 4;
    while (*p != ']') {
        char *end = nullptr;
        out.push_back(std::strtod(p, &end));
        EXPECT_NE(end, p) << "malformed array " << key;
        if (end == p)
            break;
        p = *end == ',' ? end + 1 : end;
    }
    return out;
}

TEST(SessionBroker, FinishedRunSummaryCarriesEveryField)
{
    // resilience.ini's faults and watchdog give the three fields the
    // close body once dropped non-trivial values.
    sim::Config ini = sim::Config::load(
        std::string(H2P_SOURCE_DIR) + "/examples/configs/resilience.ini");
    ini.set("obs", "enabled", "0"); // no telemetry export from a test
    const workload::UtilizationTrace trace =
        core::makeTrace(core::traceRequestFromIni(ini));
    const core::RunSummary direct =
        core::H2PSystem(core::configFromIni(ini))
            .run(trace, sched::Policy::TegOriginal)
            .summary;
    EXPECT_GT(direct.throttled_work_server_hours, 0.0);
    EXPECT_GT(direct.teg_energy_lost_kwh, 0.0);

    std::ostringstream body;
    ini.write(body);
    service::SessionBroker broker;
    service::Response open =
        broker.handleOne(makeRequest("open", {"original"}, body.str()));
    ASSERT_TRUE(open.ok) << open.message;
    const std::string id = open.args[0];
    service::Response step =
        broker.handleOne(makeRequest("step", {id, open.args[1]}));
    ASSERT_TRUE(step.ok) << step.message;
    EXPECT_EQ(step.args[1], "1"); // done
    service::Response close =
        broker.handleOne(makeRequest("close", {id}));
    ASSERT_TRUE(close.ok) << close.message;
    ASSERT_EQ(close.args[0], "finished");

    // Written at max_digits10, so every number parses back bit-equal.
    EXPECT_EQ(jsonNumberAt(close.body, "throttled_work_server_hours"),
              direct.throttled_work_server_hours);
    EXPECT_EQ(jsonNumberAt(close.body, "teg_energy_lost_kwh"),
              direct.teg_energy_lost_kwh);
    EXPECT_EQ(jsonArrayAt(close.body, "circulation_safe_fraction"),
              direct.circulation_safe_fraction);
    EXPECT_EQ(jsonNumberAt(close.body, "pre"), direct.pre);
}

/**
 * The close body as it was written before the summary JSON came from
 * RunSummary::visit: every field in this order, doubles at 17 digits.
 * Pins the wire format.
 */
std::string
pinnedSummaryJson(const core::RunSummary &s)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"policy\":\"" << sched::toString(s.policy) << "\""
       << ",\"avg_teg_w\":" << s.avg_teg_w
       << ",\"peak_teg_w\":" << s.peak_teg_w
       << ",\"avg_cpu_w\":" << s.avg_cpu_w << ",\"pre\":" << s.pre
       << ",\"teg_energy_kwh\":" << s.teg_energy_kwh
       << ",\"cpu_energy_kwh\":" << s.cpu_energy_kwh
       << ",\"plant_energy_kwh\":" << s.plant_energy_kwh
       << ",\"pump_energy_kwh\":" << s.pump_energy_kwh
       << ",\"safe_fraction\":" << s.safe_fraction
       << ",\"avg_t_in_c\":" << s.avg_t_in_c
       << ",\"fault_events\":" << s.fault_events
       << ",\"throttle_events\":" << s.throttle_events
       << ",\"throttled_work_server_hours\":"
       << s.throttled_work_server_hours
       << ",\"teg_energy_lost_kwh\":" << s.teg_energy_lost_kwh
       << ",\"safe_mode_steps\":" << s.safe_mode_steps
       << ",\"max_faulted_servers\":" << s.max_faulted_servers
       << ",\"circulation_safe_fraction\":[";
    for (size_t c = 0; c < s.circulation_safe_fraction.size(); ++c)
        os << (c ? "," : "") << s.circulation_safe_fraction[c];
    os << "]}\n";
    return os.str();
}

/** Open @p ini as a twin, step it to the end and close it. */
service::Response
runAndClose(service::SessionBroker &broker, const std::string &ini,
            const std::string &policy)
{
    service::Response open =
        broker.handleOne(makeRequest("open", {policy}, ini));
    EXPECT_TRUE(open.ok) << open.message;
    if (!open.ok)
        return open;
    const std::string id = open.args[0];
    service::Response step =
        broker.handleOne(makeRequest("step", {id, open.args[1]}));
    EXPECT_TRUE(step.ok) << step.message;
    return broker.handleOne(makeRequest("close", {id}));
}

TEST(SessionBroker, CloseBodyIsPinnedByteForByte)
{
    sim::Config ini = sim::Config::load(
        std::string(H2P_SOURCE_DIR) + "/examples/configs/resilience.ini");
    ini.set("obs", "enabled", "0"); // no telemetry export from a test
    const workload::UtilizationTrace trace =
        core::makeTrace(core::traceRequestFromIni(ini));
    const core::RunSummary direct =
        core::H2PSystem(core::configFromIni(ini))
            .run(trace, sched::Policy::TegLoadBalance)
            .summary;
    ASSERT_GT(direct.fault_events, 0u);
    ASSERT_GT(direct.max_faulted_servers, 0u);

    std::ostringstream body;
    ini.write(body);
    service::SessionBroker broker;
    service::Response close = runAndClose(broker, body.str(), "balance");
    ASSERT_TRUE(close.ok) << close.message;
    ASSERT_EQ(close.args[0], "finished");
    EXPECT_EQ(close.body, pinnedSummaryJson(direct));
}

/** resilience.ini with the thermal balancer on and no telemetry. */
sim::Config
balancedResilienceIni()
{
    sim::Config ini = sim::Config::load(
        std::string(H2P_SOURCE_DIR) + "/examples/configs/resilience.ini");
    ini.set("obs", "enabled", "0"); // no telemetry export from a test
    ini.set("balancer", "enabled", "1");
    return ini;
}

TEST(SessionBroker, ReplyBodiesArePinnedByteForByte)
{
    // A direct session over the same configuration supplies the values
    // the reference formats as the old iostream writers did.
    const sim::Config ini = balancedResilienceIni();
    const core::H2PConfig config = core::configFromIni(ini);
    const workload::UtilizationTrace trace =
        core::makeTrace(core::traceRequestFromIni(ini));
    core::H2PSystem sys(config);
    core::SimSession direct =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    const control::ControlStage *stage =
        direct.pipeline()->find(control::ThermalBalancer::kName);
    ASSERT_NE(stage, nullptr);
    const auto &balancer =
        static_cast<const control::ThermalBalancer &>(*stage);

    obs::ObsParams params;
    params.enabled = true;
    obs::Observability obs(params);
    // Non-integral values for the stats body's gauge and histogram.
    obs.metrics().gauge("service.test_ratio").set(1.0 / 3.0);
    const obs::HistogramMetric hist =
        obs.metrics().histogram("service.test_us", 0.0, 10.0, 4);
    for (double x : {0.1, 2.0 / 3.0, 7.25e-3})
        hist.observe(x);
    service::BrokerOptions options;
    options.obs = &obs;
    service::SessionBroker broker(options);
    std::ostringstream body;
    ini.write(body);
    service::Response open =
        broker.handleOne(makeRequest("open", {"balance"}, body.str()));
    ASSERT_TRUE(open.ok) << open.message;
    const std::string id = open.args[0];

    // Around and inside resilience.ini's throttled steps (47-51), and
    // the last step.
    bool saw_fault = false;
    for (size_t target : {1u, 48u, 50u, 144u}) {
        service::Response step = broker.handleOne(makeRequest(
            "step", {id, std::to_string(target - direct.cursor())}));
        ASSERT_TRUE(step.ok) << step.message;
        while (direct.cursor() < target)
            direct.step();
        saw_fault |= direct.lastState().faulted_servers > 0;

        EXPECT_EQ(broker.handleOne(makeRequest("query", {id, "state"}))
                      .body,
                  oracle::stateJson(direct.lastState(),
                                    config.datacenter.num_servers))
            << "step " << target;
        EXPECT_EQ(
            broker.handleOne(makeRequest("query", {id, "decision"})).body,
            oracle::decisionJson(direct.lastDecision()))
            << "step " << target;
        EXPECT_EQ(broker.handleOne(makeRequest("balancer", {id})).body,
                  oracle::balancerJson(balancer))
            << "step " << target;
        // The stats request itself is counted before its body is made.
        const std::string stats =
            broker.handleOne(makeRequest("stats")).body;
        EXPECT_EQ(stats, oracle::statsJson(obs.metrics()))
            << "step " << target;
    }
    EXPECT_TRUE(saw_fault);
}

/** Commas for decimal points, dots between digit groups of three. */
struct CommaPunct : std::numpunct<char>
{
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

/** Installs CommaPunct as the global locale for its lifetime. */
struct CommaGlobalLocale
{
    std::locale previous = std::locale::global(
        std::locale(std::locale::classic(), new CommaPunct));
    ~CommaGlobalLocale() { std::locale::global(previous); }
};

TEST(SessionBroker, WireAndCsvBytesIgnoreTheGlobalLocale)
{
    CsvTable table({"a", "b"});
    table.addRow({1234.5, 0.1});
    table.addRow({-2.5e-7, 1e21});
    table.addRow({std::numeric_limits<double>::infinity(), -0.0});

    service::SessionBroker broker;
    service::Response open =
        broker.handleOne(makeRequest("open", {"original"}, kIni));
    ASSERT_TRUE(open.ok) << open.message;
    const std::string id = open.args[0];
    ASSERT_TRUE(broker.handleOne(makeRequest("step", {id, "10"})).ok);
    const std::string classic_state =
        broker.handleOne(makeRequest("query", {id, "state"})).body;
    EXPECT_NE(classic_state.find('.'), std::string::npos);

    const CommaGlobalLocale comma;
    std::ostringstream probe; // takes the global locale, as users' do
    probe << 1234.5;
    ASSERT_EQ(probe.str(), "1.234,5"); // the locale is in force

    EXPECT_EQ(broker.handleOne(makeRequest("query", {id, "state"})).body,
              classic_state);
    // That body was encoded before the locale changed; encode one
    // under it.
    ASSERT_TRUE(broker.handleOne(makeRequest("step", {id, "1"})).ok);
    DirectTwin direct(sched::Policy::TegOriginal);
    EXPECT_EQ(broker.handleOne(makeRequest("query", {id, "state"})).body,
              direct.stateAt(11));
    std::ostringstream csv;
    table.write(csv);
    EXPECT_EQ(csv.str(), oracle::csvText(table));
    EXPECT_EQ(csv.precision(), 6); // the caller's stream is left alone
}

TEST(SessionBroker, StateBodyIsEncodedOncePerStep)
{
    service::SessionBroker broker;
    const char *const policies[] = {"original", "balance"};
    std::string ids[2];
    for (int k = 0; k < 2; ++k) {
        service::Response open =
            broker.handleOne(makeRequest("open", {policies[k]}, kIni));
        ASSERT_TRUE(open.ok) << open.message;
        ids[k] = open.args[0];
        service::Response early =
            broker.handleOne(makeRequest("query", {ids[k], "state"}));
        EXPECT_FALSE(early.ok);
        EXPECT_NE(early.message.find("no step evaluated yet"),
                  std::string::npos)
            << early.message;
    }
    DirectTwin original(sched::Policy::TegOriginal);
    DirectTwin balance(sched::Policy::TegLoadBalance);
    DirectTwin *direct[] = {&original, &balance};

    const auto state = [&broker](const std::string &id) {
        service::Response r =
            broker.handleOne(makeRequest("query", {id, "state"}));
        EXPECT_TRUE(r.ok) << r.message;
        return r.body;
    };
    // Interleaved steps of both twins with three queries of each
    // between them; the last round steps finished twins (a no-op).
    size_t cursor = 0;
    for (size_t target : {1u, 2u, 40u, 144u, 144u}) {
        SCOPED_TRACE("step " + std::to_string(target));
        const size_t n = target > cursor ? target - cursor : 1;
        cursor = target;
        std::string bodies[2];
        for (int k = 0; k < 2; ++k) {
            service::Response step = broker.handleOne(
                makeRequest("step", {ids[k], std::to_string(n)}));
            ASSERT_TRUE(step.ok) << step.message;
            ASSERT_EQ(step.args[0], std::to_string(target));
            bodies[k] = direct[k]->stateAt(target);
        }
        for (int round = 0; round < 3; ++round)
            for (int k = 0; k < 2; ++k)
                EXPECT_EQ(state(ids[k]), bodies[k]) << policies[k];
        EXPECT_NE(bodies[0], bodies[1]);
    }

    // A step the budget refuses still makes the next query re-encode:
    // the body follows the steps taken before the refusal.
    service::BrokerOptions options;
    options.step_budget = 5;
    service::SessionBroker budgeted(options);
    service::Response open =
        budgeted.handleOne(makeRequest("open", {"original"}, kIni));
    ASSERT_TRUE(open.ok) << open.message;
    const std::string id = open.args[0];
    DirectTwin reference(sched::Policy::TegOriginal);
    ASSERT_TRUE(budgeted.handleOne(makeRequest("step", {id, "3"})).ok);
    EXPECT_EQ(
        budgeted.handleOne(makeRequest("query", {id, "state"})).body,
        reference.stateAt(3));
    for (int attempt = 0; attempt < 2; ++attempt) {
        service::Response step =
            budgeted.handleOne(makeRequest("step", {id, "10"}));
        EXPECT_FALSE(step.ok);
        EXPECT_NE(step.message.find("step budget"), std::string::npos)
            << step.message;
        EXPECT_EQ(
            budgeted.handleOne(makeRequest("query", {id, "state"})).body,
            reference.stateAt(5));
    }
}

TEST(SessionBroker, DecisionBodyIsEncodedOncePerStep)
{
    service::SessionBroker broker;
    const char *const policies[] = {"original", "balance"};
    std::string ids[2];
    for (int k = 0; k < 2; ++k) {
        service::Response open =
            broker.handleOne(makeRequest("open", {policies[k]}, kIni));
        ASSERT_TRUE(open.ok) << open.message;
        ids[k] = open.args[0];
        service::Response early =
            broker.handleOne(makeRequest("query", {ids[k], "decision"}));
        EXPECT_FALSE(early.ok);
        EXPECT_NE(early.message.find("no step evaluated yet"),
                  std::string::npos)
            << early.message;
    }
    DirectTwin original(sched::Policy::TegOriginal);
    DirectTwin balance(sched::Policy::TegLoadBalance);
    DirectTwin *direct[] = {&original, &balance};

    const auto query = [&broker](const std::string &id, const char *what) {
        service::Response r =
            broker.handleOne(makeRequest("query", {id, what}));
        EXPECT_TRUE(r.ok) << r.message;
        return r.body;
    };
    // Interleaved steps of both twins with three decision queries of
    // each between them, next to state queries (each kind keeps its
    // own body); the last round steps finished twins (a no-op).
    size_t cursor = 0;
    for (size_t target : {1u, 2u, 40u, 144u, 144u}) {
        SCOPED_TRACE("step " + std::to_string(target));
        const size_t n = target > cursor ? target - cursor : 1;
        cursor = target;
        std::string decisions[2];
        std::string states[2];
        for (int k = 0; k < 2; ++k) {
            service::Response step = broker.handleOne(
                makeRequest("step", {ids[k], std::to_string(n)}));
            ASSERT_TRUE(step.ok) << step.message;
            ASSERT_EQ(step.args[0], std::to_string(target));
            decisions[k] = direct[k]->decisionAt(target);
            states[k] = direct[k]->stateAt(target);
        }
        for (int round = 0; round < 3; ++round)
            for (int k = 0; k < 2; ++k) {
                EXPECT_EQ(query(ids[k], "decision"), decisions[k])
                    << policies[k];
                EXPECT_EQ(query(ids[k], "state"), states[k]) << policies[k];
            }
        // The balanced twin plans over the balanced utilizations.
        EXPECT_NE(decisions[0], decisions[1]);
    }

    // A step the budget refuses still makes the next query re-encode:
    // the body follows the steps taken before the refusal.
    service::BrokerOptions options;
    options.step_budget = 5;
    service::SessionBroker budgeted(options);
    service::Response open =
        budgeted.handleOne(makeRequest("open", {"original"}, kIni));
    ASSERT_TRUE(open.ok) << open.message;
    const std::string id = open.args[0];
    DirectTwin reference(sched::Policy::TegOriginal);
    ASSERT_TRUE(budgeted.handleOne(makeRequest("step", {id, "3"})).ok);
    EXPECT_EQ(
        budgeted.handleOne(makeRequest("query", {id, "decision"})).body,
        reference.decisionAt(3));
    for (int attempt = 0; attempt < 2; ++attempt) {
        service::Response step =
            budgeted.handleOne(makeRequest("step", {id, "10"}));
        EXPECT_FALSE(step.ok);
        EXPECT_NE(step.message.find("step budget"), std::string::npos)
            << step.message;
        EXPECT_EQ(
            budgeted.handleOne(makeRequest("query", {id, "decision"})).body,
            reference.decisionAt(5));
    }
}

TEST(SessionBroker, CloseBodyHasAKeyPerSummaryField)
{
    service::SessionBroker broker;
    service::Response close = runAndClose(broker, kIni, "original");
    ASSERT_TRUE(close.ok) << close.message;
    ASSERT_EQ(close.args[0], "finished");
    const std::vector<std::string> names =
        test::fieldNames(core::RunSummary());
    EXPECT_FALSE(names.empty());
    for (const std::string &name : names)
        EXPECT_NE(close.body.find("\"" + name + "\":"), std::string::npos)
            << name << " missing from " << close.body;
}

/** Reads each field a visit names back from a summaryJson body. */
struct JsonFieldReader
{
    const std::string &json;

    void operator()(const char *name, double &v)
    {
        v = jsonNumberAt(json, name);
    }
    void operator()(const char *name, size_t &v)
    {
        v = std::strtoull(jsonValueAt(json, name), nullptr, 10);
    }
    void operator()(const char *name, sched::Policy &v)
    {
        std::string_view text = jsonValueAt(json, name);
        if (!text.starts_with('"'))
            return;
        text.remove_prefix(1);
        for (sched::Policy p :
             {sched::Policy::TegOriginal, sched::Policy::TegLoadBalance}) {
            const std::string policy = sched::toString(p);
            if (text.starts_with(policy) &&
                text.substr(policy.size()).starts_with('"'))
                v = p;
        }
    }
    void operator()(const char *name, std::vector<double> &v)
    {
        v = jsonArrayAt(json, name);
    }
};

TEST(SessionBroker, EverySummaryFieldSurvivesTheJournalAndTheJson)
{
    core::RunSummary sent;
    test::setDistinctValues(sent);

    // Journal: append and load one record carrying it.
    TempPath jp("service_test_fields.journal");
    core::SweepPointResult point;
    point.status = core::PointStatus::Completed;
    point.attempts = 1;
    point.summary = sent;
    {
        auto journal = core::SweepJournal::create(
            jp.path, 1, core::SweepJournal::GridFingerprints());
        journal.append(point);
    }
    const core::SweepJournal::Loaded loaded =
        core::SweepJournal::load(jp.path);
    ASSERT_EQ(loaded.records.size(), 1u);
    EXPECT_EQ(test::firstDifferingField(loaded.records.at(0).summary, sent),
              "");

    // Wire: every field parses back bit-equal from the summary JSON.
    const std::string json = service::summaryJson(sent);
    core::RunSummary back;
    JsonFieldReader reader{json};
    back.visit(reader);
    EXPECT_EQ(test::firstDifferingField(back, sent), "") << json;
}

TEST(SessionBroker, CheckpointResumeReproducesTheRunByteForByte)
{
    std::istringstream is(kIni);
    const sim::Config ini = sim::Config::parse(is);
    core::H2PSystem sys(core::configFromIni(ini));
    workload::UtilizationTrace trace =
        core::makeTrace(core::traceRequestFromIni(ini));
    core::SimSession session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    session.runToCompletion();
    std::ostringstream direct;
    session.recorder().writeJsonl(direct);

    TempPath ckpt("service_test_resume.ckpt");
    service::SessionBroker broker;
    service::Response open =
        broker.handleOne(makeRequest("open", {"balance"}, kIni));
    ASSERT_TRUE(open.ok) << open.message;
    ASSERT_TRUE(
        broker.handleOne(makeRequest("step", {open.args[0], "70"}))
            .ok);
    ASSERT_TRUE(broker
                    .handleOne(makeRequest(
                        "checkpoint", {open.args[0], ckpt.path}))
                    .ok);
    ASSERT_TRUE(
        broker.handleOne(makeRequest("close", {open.args[0]})).ok);

    service::Response resume =
        broker.handleOne(makeRequest("resume", {ckpt.path}, kIni));
    ASSERT_TRUE(resume.ok) << resume.message;
    ASSERT_EQ(resume.args.size(), 3u);
    EXPECT_EQ(resume.args[1], "70"); // cursor restored
    const std::string id = resume.args[0];
    service::Response step =
        broker.handleOne(makeRequest("step", {id, "9999"}));
    ASSERT_TRUE(step.ok);
    EXPECT_EQ(step.args[1], "1"); // done
    service::Response jsonl =
        broker.handleOne(makeRequest("query", {id, "jsonl"}));
    ASSERT_TRUE(jsonl.ok);
    EXPECT_EQ(jsonl.body, direct.str());

    service::Response close =
        broker.handleOne(makeRequest("close", {id}));
    ASSERT_TRUE(close.ok);
    EXPECT_EQ(close.args[0], "finished");
    EXPECT_NE(close.body.find("\"pre\":"), std::string::npos);
}

TEST(SessionBroker, ResumeOfAMissingCheckpointListsNoSession)
{
    service::SessionBroker broker;
    service::Response resume = broker.handleOne(makeRequest(
        "resume", {"service_test_no_such.ckpt"}, kIni));
    EXPECT_FALSE(resume.ok);
    EXPECT_NE(resume.message.find("cannot open checkpoint"),
              std::string::npos)
        << resume.message;
    EXPECT_EQ(broker.numSessions(), 0u);
}

TEST(SessionBroker, ResumeOfACustomControlCheckpointIsRefused)
{
    // The daemon runs built-in control only; a twin resumed from a
    // custom-control checkpoint could never step.
    std::istringstream is(kIni);
    const sim::Config ini = sim::Config::parse(is);
    core::H2PSystem sys(core::configFromIni(ini));
    workload::UtilizationTrace trace =
        core::makeTrace(core::traceRequestFromIni(ini));
    auto custom = std::make_unique<control::ControlPipeline>("custom");
    custom->add(std::make_unique<control::CoolingStage>(sys.datacenter(),
                                                        sys.optimizer()));
    core::SimSession session = sys.startSession(
        trace, sched::Policy::TegOriginal, std::move(custom));
    session.step();
    TempPath ckpt("service_test_custom.ckpt");
    session.saveCheckpoint(ckpt.path);

    service::SessionBroker broker;
    service::Response resume =
        broker.handleOne(makeRequest("resume", {ckpt.path}, kIni));
    EXPECT_FALSE(resume.ok);
    EXPECT_NE(resume.message.find("custom control"), std::string::npos)
        << resume.message;
    EXPECT_EQ(broker.numSessions(), 0u);
}

TEST(SessionBroker, SweepStreamsPointsThenDone)
{
    const std::string body = std::string(kIni) + "---\n" + kIni;
    service::SessionBroker broker;
    std::vector<service::Response> responses;
    broker.handle(makeRequest("sweep", {"original", "2"}, body),
                  [&responses](const service::Response &r, bool) {
                      responses.push_back(r);
                  });
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_TRUE(responses[0].ok);
    EXPECT_EQ(responses[0].args[0], "point");
    EXPECT_EQ(responses[0].args[1], "0");
    EXPECT_EQ(responses[0].args[3], "completed");
    EXPECT_EQ(responses[1].args[1], "1");
    ASSERT_EQ(responses[2].args.size(), 4u);
    EXPECT_EQ(responses[2].args[0], "done");
    EXPECT_EQ(responses[2].args[1], "2");
    // Identical points produce identical summaries.
    EXPECT_EQ(responses[0].body, responses[1].body);
}

TEST(SessionBroker, SweepPointsSharingATraceMatchInProcessRuns)
{
    // Documents 0 and 1 share their [trace] section; document 2 asks
    // for another seed. Each point must match its document run alone.
    const auto edit = [](const std::string &from, const std::string &to) {
        std::string doc = kIni;
        doc.replace(doc.find(from), from.size(), to);
        return doc;
    };
    const std::vector<std::string> docs = {
        kIni,
        edit("servers_per_circulation = 20", "servers_per_circulation = 10"),
        edit("seed = 21", "seed = 22"),
    };
    const std::string body = docs[0] + "---\n" + docs[1] + "---\n" + docs[2];
    service::SessionBroker broker;
    std::vector<service::Response> responses;
    broker.handle(makeRequest("sweep", {"balance", "2"}, body),
                  [&responses](const service::Response &r, bool) {
                      responses.push_back(r);
                  });
    ASSERT_EQ(responses.size(), docs.size() + 1);
    EXPECT_EQ(responses.back().args[0], "done");
    EXPECT_EQ(responses.back().args[1], "3");

    std::vector<std::string> want;
    for (const std::string &doc : docs) {
        std::istringstream is(doc);
        const sim::Config ini = sim::Config::parse(is);
        const workload::UtilizationTrace trace =
            core::makeTrace(core::traceRequestFromIni(ini));
        core::H2PSystem system(core::configFromIni(ini));
        want.push_back(service::summaryJson(
            system.run(trace, sched::Policy::TegLoadBalance).summary));
    }
    EXPECT_NE(want[0], want[2]);
    for (size_t i = 0; i < docs.size(); ++i) {
        const service::Response &r = responses[i];
        ASSERT_TRUE(r.ok) << r.message;
        ASSERT_EQ(r.args[0], "point");
        const size_t index = std::stoul(r.args[1]);
        ASSERT_LT(index, docs.size());
        EXPECT_EQ(r.args[3], "completed");
        EXPECT_EQ(r.body, want[index]) << "document " << index;
    }
}

#if defined(__linux__)
TEST(SessionBroker, SweepWorkersAreCappedAtUsableCpus)
{
    // A client's worker count is a request: on a thread narrowed to
    // one CPU, `sweep original 64` over three documents runs one
    // worker (it used to start three, one per document). The mask is
    // restored before any assertion can return.
    cpu_set_t full;
    CPU_ZERO(&full);
    ASSERT_EQ(sched_getaffinity(0, sizeof(full), &full), 0);
    int first_cpu = 0;
    while (!CPU_ISSET(first_cpu, &full))
        ++first_cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first_cpu, &one);

    obs::ObsParams params;
    params.enabled = true;
    obs::Observability obs(params);
    service::BrokerOptions options;
    options.obs = &obs;
    service::SessionBroker broker(options);
    const std::string body =
        std::string(kIni) + "---\n" + kIni + "---\n" + kIni;
    std::vector<service::Response> responses;
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    broker.handle(makeRequest("sweep", {"original", "64"}, body),
                  [&responses](const service::Response &r, bool) {
                      responses.push_back(r);
                  });
    ASSERT_EQ(sched_setaffinity(0, sizeof(full), &full), 0);

    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses.back().args[0], "done");
    EXPECT_EQ(responses.back().args[1], "3");
    EXPECT_EQ(obs.metrics().gaugeValue("sweep.workers"), 1.0);
}
#endif

TEST(SessionBroker, SweepRejectsEmptyDocuments)
{
    // An empty body, and a body ending in "---", once ran points of
    // the default configuration nobody sent.
    const std::vector<std::pair<std::string, std::string>> bodies = {
        {"", "document 0 is empty"},
        {std::string(kIni) + "---\n", "document 1 is empty"},
        {std::string(kIni) + "---\n  \n\t\n---\n" + kIni,
         "document 1 is empty"},
    };
    for (const auto &[body, message] : bodies) {
        SCOPED_TRACE(message);
        service::SessionBroker broker;
        std::vector<service::Response> responses;
        broker.handle(makeRequest("sweep", {"original"}, body),
                      [&responses](const service::Response &r, bool) {
                          responses.push_back(r);
                      });
        ASSERT_EQ(responses.size(), 1u);
        EXPECT_FALSE(responses[0].ok);
        EXPECT_NE(responses[0].message.find(message), std::string::npos)
            << responses[0].message;
    }
}

TEST(SessionBroker, ConcurrentClientsHammerOneBroker)
{
    service::BrokerOptions options;
    options.max_sessions = 16;
    service::SessionBroker broker(options);
    constexpr int kClients = 4;
    std::vector<std::thread> clients;
    std::vector<int> failures(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&broker, &failures, c] {
            service::Response open = broker.handleOne(makeRequest(
                "open", {c % 2 == 0 ? "original" : "balance"}, kIni));
            if (!open.ok) {
                failures[c]++;
                return;
            }
            const std::string id = open.args[0];
            for (int i = 0; i < 12; ++i) {
                if (!broker.handleOne(makeRequest("step", {id, "3"}))
                         .ok ||
                    !broker
                         .handleOne(
                             makeRequest("query", {id, "state"}))
                         .ok)
                    failures[c]++;
            }
            if (!broker.handleOne(makeRequest("close", {id})).ok)
                failures[c]++;
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], 0) << "client " << c;
    EXPECT_EQ(broker.numSessions(), 0u);
}

// ---------------------------------------------------------------------
// Socket server.

TEST(ServiceServer, ServesConcurrentConnectionsAndStopsCleanly)
{
    TempPath socket("service_test_server.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);

    auto client = [&socket](sched::Policy policy) {
        util::Fd fd = util::unixConnect(socket.path);
        service::writeFrame(
            fd, makeRequest("open",
                            {policy == sched::Policy::TegOriginal
                                 ? "original"
                                 : "balance"},
                            kIni)
                    .serialize());
        std::string payload;
        ASSERT_TRUE(service::readFrame(fd, payload));
        service::Response open = service::Response::parse(payload);
        ASSERT_TRUE(open.ok) << open.message;
        const std::string id = open.args[0];
        service::writeFrame(
            fd, makeRequest("step", {id, "20"}).serialize());
        ASSERT_TRUE(service::readFrame(fd, payload));
        ASSERT_TRUE(service::Response::parse(payload).ok);
        service::writeFrame(fd,
                            makeRequest("close", {id}).serialize());
        ASSERT_TRUE(service::readFrame(fd, payload));
        ASSERT_TRUE(service::Response::parse(payload).ok);
    };
    std::thread a(client, sched::Policy::TegOriginal);
    std::thread b(client, sched::Policy::TegLoadBalance);
    a.join();
    b.join();
    EXPECT_EQ(broker.numSessions(), 0u);
    server.stop(); // idempotent with the destructor
}

TEST(ServiceServer, MalformedHeaderGetsErrorButConnectionSurvives)
{
    TempPath socket("service_test_malformed.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);

    util::Fd fd = util::unixConnect(socket.path);
    service::writeFrame(fd, "step  double-space\n");
    std::string payload;
    ASSERT_TRUE(service::readFrame(fd, payload));
    EXPECT_FALSE(service::Response::parse(payload).ok);
    // Same connection still works afterwards.
    service::writeFrame(fd, makeRequest("ping").serialize());
    ASSERT_TRUE(service::readFrame(fd, payload));
    EXPECT_TRUE(service::Response::parse(payload).ok);
}

TEST(ServiceServer, NegativeCountInOpenIsAnErrorAndServingGoesOn)
{
    // `num_servers = -1` used to wrap to 2^64 - 1 and hang a worker.
    TempPath socket("service_test_negative.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);

    util::Fd fd = util::unixConnect(socket.path);
    service::writeFrame(
        fd, makeRequest("open", {"original"},
                        "[datacenter]\nnum_servers = -1\n")
                .serialize());
    std::string payload;
    ASSERT_TRUE(service::readFrame(fd, payload));
    service::Response bad = service::Response::parse(payload);
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.message.find("[datacenter] num_servers"),
              std::string::npos)
        << bad.message;
    EXPECT_EQ(broker.numSessions(), 0u);

    service::writeFrame(
        fd, makeRequest("open", {"original"}, kIni).serialize());
    ASSERT_TRUE(service::readFrame(fd, payload));
    service::Response good = service::Response::parse(payload);
    ASSERT_TRUE(good.ok) << good.message;
    service::writeFrame(
        fd, makeRequest("step", {good.args[0], "5"}).serialize());
    ASSERT_TRUE(service::readFrame(fd, payload));
    EXPECT_TRUE(service::Response::parse(payload).ok);
}

TEST(ServiceServer, ShutdownVerbStopsTheServer)
{
    TempPath socket("service_test_shutdown.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);
    broker.setOnShutdown([&server] { server.requestStop(); });

    util::Fd fd = util::unixConnect(socket.path);
    service::writeFrame(fd, makeRequest("shutdown").serialize());
    std::string payload;
    ASSERT_TRUE(service::readFrame(fd, payload));
    EXPECT_TRUE(service::Response::parse(payload).ok);
    server.waitForStop();
    server.stop();
}

// ---------------------------------------------------------------------
// Incremental frame decoding (the server's read path).

TEST(ServiceProtocol, FrameDecoderReassemblesAtEverySplitOffset)
{
    const std::vector<std::string> payloads = {
        "", "a", "hello\nworld", std::string(5000, 'x')};
    std::string wire;
    for (const std::string &p : payloads)
        wire += service::encodeFrame(p);

    // Split the byte stream at every possible boundary; the decoder
    // must produce the identical payload sequence regardless.
    for (size_t cut = 0; cut <= wire.size(); ++cut) {
        service::FrameDecoder decoder;
        std::vector<std::string> got;
        decoder.feed(wire.data(), cut);
        std::string payload;
        while (decoder.next(payload))
            got.push_back(payload);
        decoder.feed(wire.data() + cut, wire.size() - cut);
        while (decoder.next(payload))
            got.push_back(payload);
        ASSERT_EQ(got, payloads) << "split at byte " << cut;
        EXPECT_EQ(decoder.bufferedBytes(), 0u);
    }

    // Degenerate fragmentation: one byte at a time.
    service::FrameDecoder decoder;
    std::vector<std::string> got;
    std::string payload;
    for (char c : wire) {
        decoder.feed(&c, 1);
        while (decoder.next(payload))
            got.push_back(payload);
    }
    EXPECT_EQ(got, payloads);
}

TEST(ServiceProtocol, FrameDecoderRejectsOversizedPrefixBeforePayload)
{
    // A forged prefix past the cap must be rejected as soon as the 4
    // length bytes arrive — not after buffering a giant payload.
    service::FrameDecoder decoder;
    const char prefix[4] = {'\xff', '\xff', '\xff', '\x7f'};
    decoder.feed(prefix, sizeof(prefix));
    std::string payload;
    EXPECT_THROW(decoder.next(payload), Error);
}

// ---------------------------------------------------------------------
// Reactor pipelining, ordering and robustness.

TEST(ServiceServer, PipelinedRequestsAreAnsweredInRequestOrder)
{
    TempPath socket("service_test_pipeline.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);

    util::Fd fd = util::unixConnect(socket.path);
    // Interleave pings with distinct unknown verbs so each response
    // is attributable: the reply order must match the send order.
    constexpr int kRequests = 20;
    for (int i = 0; i < kRequests; ++i) {
        if (i % 2 == 0)
            service::writeFrame(fd, makeRequest("ping").serialize());
        else
            service::writeFrame(
                fd,
                makeRequest("nope" + std::to_string(i)).serialize());
    }
    std::string payload;
    for (int i = 0; i < kRequests; ++i) {
        ASSERT_TRUE(service::readFrame(fd, payload)) << "reply " << i;
        service::Response r = service::Response::parse(payload);
        if (i % 2 == 0) {
            EXPECT_TRUE(r.ok) << r.message;
            EXPECT_EQ(r.args[0], "pong");
        } else {
            EXPECT_FALSE(r.ok);
            EXPECT_NE(r.message.find("nope" + std::to_string(i)),
                      std::string::npos)
                << "reply " << i << " was: " << r.message;
        }
    }
}

TEST(ServiceServer, PipelinedStepsExecuteInOrder)
{
    TempPath socket("service_test_pipeline_steps.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);

    util::Fd fd = util::unixConnect(socket.path);
    service::writeFrame(
        fd, makeRequest("open", {"original"}, kIni).serialize());
    std::string payload;
    ASSERT_TRUE(service::readFrame(fd, payload));
    service::Response open = service::Response::parse(payload);
    ASSERT_TRUE(open.ok) << open.message;
    const std::string id = open.args[0];

    // Ten single steps in flight at once: the cursors they report
    // must come back strictly 1..10 — pipelining must not reorder
    // execution within a connection.
    for (int i = 0; i < 10; ++i)
        service::writeFrame(fd,
                            makeRequest("step", {id, "1"}).serialize());
    for (int i = 1; i <= 10; ++i) {
        ASSERT_TRUE(service::readFrame(fd, payload));
        service::Response step = service::Response::parse(payload);
        ASSERT_TRUE(step.ok) << step.message;
        EXPECT_EQ(step.args[0], std::to_string(i));
    }
}

TEST(ServiceServer, MalformedRequestMidPipelineKeepsOrderAndConnection)
{
    TempPath socket("service_test_badmid.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);

    util::Fd fd = util::unixConnect(socket.path);
    service::writeFrame(fd, makeRequest("ping").serialize());
    service::writeFrame(fd, "step  double-space\n"); // malformed
    service::writeFrame(fd, makeRequest("ping").serialize());
    std::string payload;
    ASSERT_TRUE(service::readFrame(fd, payload));
    EXPECT_TRUE(service::Response::parse(payload).ok);
    ASSERT_TRUE(service::readFrame(fd, payload));
    EXPECT_FALSE(service::Response::parse(payload).ok);
    ASSERT_TRUE(service::readFrame(fd, payload));
    EXPECT_TRUE(service::Response::parse(payload).ok);
}

TEST(ServiceServer, SlowLorisPartialFrameDoesNotStallOtherClients)
{
    TempPath socket("service_test_loris.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);

    // Client A dribbles half a frame and goes quiet.
    util::Fd slow = util::unixConnect(socket.path);
    const uint8_t prefix[4] = {100, 0, 0, 0}; // promises 100 bytes
    util::writeAll(slow, prefix, sizeof(prefix));
    util::writeAll(slow, "short", 5);

    // Client B must still get full service.
    util::Fd fast = util::unixConnect(socket.path);
    std::string payload;
    for (int i = 0; i < 3; ++i) {
        service::writeFrame(fast, makeRequest("ping").serialize());
        ASSERT_TRUE(service::readFrame(fast, payload));
        EXPECT_TRUE(service::Response::parse(payload).ok);
    }

    // A completes its frame (garbage header) and is answered too —
    // with a parse error, on a connection that stays up.
    util::writeAll(slow, std::string(95, 'z').data(), 95);
    ASSERT_TRUE(service::readFrame(slow, payload));
    EXPECT_FALSE(service::Response::parse(payload).ok);
    service::writeFrame(slow, makeRequest("ping").serialize());
    ASSERT_TRUE(service::readFrame(slow, payload));
    EXPECT_TRUE(service::Response::parse(payload).ok);
}

TEST(ServiceServer, BackpressureDisconnectsReaderPastQueueCap)
{
    TempPath socket("service_test_backpressure.sock");
    obs::ObsParams obs_params;
    obs::Observability obs(obs_params);
    service::SessionBroker broker;
    service::ServerOptions options;
    options.max_queue_bytes = 1024; // absurdly small on purpose
    options.obs = &obs;
    service::Server server(socket.path, &broker, options);

    util::Fd fd = util::unixConnect(socket.path);
    service::writeFrame(
        fd, makeRequest("open", {"original"}, kIni).serialize());
    std::string payload;
    ASSERT_TRUE(service::readFrame(fd, payload));
    service::Response open = service::Response::parse(payload);
    ASSERT_TRUE(open.ok) << open.message;
    const std::string id = open.args[0];
    service::writeFrame(fd,
                        makeRequest("step", {id, "144"}).serialize());
    ASSERT_TRUE(service::readFrame(fd, payload));
    ASSERT_TRUE(service::Response::parse(payload).ok);

    // Pipeline many large responses (per-step JSONL dumps) and stop
    // reading: once the kernel socket buffer fills, the userspace
    // queue blows the 1 KiB cap and the server cuts the connection
    // instead of queueing without bound.
    constexpr int kQueries = 48;
    for (int i = 0; i < kQueries; ++i)
        service::writeFrame(
            fd, makeRequest("query", {id, "jsonl"}).serialize());
    uint64_t disconnects = 0;
    for (int waited_ms = 0; waited_ms < 10000; waited_ms += 10) {
        disconnects = obs.metrics().counterValue(
            "service.backpressure_disconnects");
        if (disconnects > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(disconnects, 1u);
    // The cut is visible client-side too: whatever was in flight
    // drains, then EOF (or a frame truncated by the close).
    bool disconnected = false;
    try {
        int received = 0;
        while (received < kQueries &&
               service::readFrame(fd, payload))
            ++received;
        disconnected = received < kQueries;
    } catch (const Error &) {
        disconnected = true;
    }
    EXPECT_TRUE(disconnected);
}

TEST(ServiceServer, StatsVerbReportsTransportMetrics)
{
    TempPath socket("service_test_stats.sock");
    obs::ObsParams obs_params;
    obs::Observability obs(obs_params);
    service::BrokerOptions broker_options;
    broker_options.obs = &obs;
    service::SessionBroker broker(broker_options);
    service::ServerOptions options;
    options.obs = &obs;
    service::Server server(socket.path, &broker, options);

    util::Fd fd = util::unixConnect(socket.path);
    std::string payload;
    service::writeFrame(fd, makeRequest("ping").serialize());
    ASSERT_TRUE(service::readFrame(fd, payload));
    service::writeFrame(fd, makeRequest("stats").serialize());
    ASSERT_TRUE(service::readFrame(fd, payload));
    service::Response stats = service::Response::parse(payload);
    ASSERT_TRUE(stats.ok) << stats.message;
    EXPECT_NE(stats.body.find("\"service.connections\":"),
              std::string::npos)
        << stats.body;
    EXPECT_NE(stats.body.find("\"service.rx_frames\":"),
              std::string::npos);
    EXPECT_NE(stats.body.find("\"service.tx_frames\":"),
              std::string::npos);
    EXPECT_NE(stats.body.find("\"service.queue_depth\":"),
              std::string::npos);
}

TEST(ServiceServer, PipelineFlowControlAnswersEveryRequestInOrder)
{
    // A 1,000-request burst: the server reads it 64 KiB at a time
    // and reads on only once the replies to each read are flushed.
    // The padded burst (~120 KiB) outgrows one read, so the tail only
    // arrives if reading resumes; nothing may be lost or reordered
    // although the client reads nothing until it has sent everything.
    TempPath socket("service_test_flow_control.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);

    util::Fd fd = util::unixConnect(socket.path);
    // A server that never resumes reading fails the test, not hangs.
    const timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    constexpr int kRequests = 1000;
    const std::string pad(100, 'p');
    std::string burst;
    for (int i = 0; i < kRequests; ++i)
        burst += service::encodeFrame(
            makeRequest(i % 2 == 0 ? "ping" : "nope" + std::to_string(i),
                        {}, pad)
                .serialize());
    util::writeAll(fd, burst.data(), burst.size());
    std::string payload;
    for (int i = 0; i < kRequests; ++i) {
        ASSERT_TRUE(service::readFrame(fd, payload)) << "reply " << i;
        service::Response r = service::Response::parse(payload);
        if (i % 2 == 0) {
            ASSERT_TRUE(r.ok) << "reply " << i << ": " << r.message;
            EXPECT_EQ(r.args[0], "pong");
        } else {
            ASSERT_FALSE(r.ok) << "reply " << i;
            EXPECT_NE(r.message.find("nope" + std::to_string(i)),
                      std::string::npos)
                << "reply " << i << " was: " << r.message;
        }
    }
}

TEST(ServiceServer, ShutdownDrainIsBoundedByAReaderThatNeverReads)
{
    TempPath socket("service_test_drain.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);
    broker.setOnShutdown([&server] { server.requestStop(); });

    // Client A queues large responses (per-step JSONL dumps) and
    // never reads them, so its queue cannot drain.
    util::Fd stuck = util::unixConnect(socket.path);
    service::writeFrame(
        stuck, makeRequest("open", {"original"}, kIni).serialize());
    std::string payload;
    ASSERT_TRUE(service::readFrame(stuck, payload));
    service::Response open = service::Response::parse(payload);
    ASSERT_TRUE(open.ok) << open.message;
    const std::string id = open.args[0];
    service::writeFrame(stuck,
                        makeRequest("step", {id, "144"}).serialize());
    ASSERT_TRUE(service::readFrame(stuck, payload));
    ASSERT_TRUE(service::Response::parse(payload).ok);
    for (int i = 0; i < 64; ++i)
        service::writeFrame(
            stuck, makeRequest("query", {id, "jsonl"}).serialize());

    // Client B asks for shutdown and must still get its ok.
    util::Fd reader = util::unixConnect(socket.path);
    service::writeFrame(reader, makeRequest("shutdown").serialize());
    ASSERT_TRUE(service::readFrame(reader, payload));
    EXPECT_TRUE(service::Response::parse(payload).ok);

    const auto t0 = std::chrono::steady_clock::now();
    server.requestStop();
    server.stop();
    const double stop_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    EXPECT_LT(stop_s, 10.0);
}

TEST(ServiceServer, LongRequestHoldsOnlyItsConnection)
{
    // Connection A's request holds its pool thread for at least 0.5 s
    // and until connection B has been served (10 s at most): the
    // shutdown verb's hook stands in for a long sweep. B's pipelined
    // pings must all be answered by the other thread meanwhile.
    TempPath socket("service_test_long_request.sock");
    service::SessionBroker broker;
    std::mutex mutex;
    std::condition_variable cv;
    bool a_running = false;
    bool a_finished = false;
    bool b_served = false;
    bool b_served_while_a_ran = false;
    broker.setOnShutdown([&] {
        const auto t0 = std::chrono::steady_clock::now();
        std::unique_lock<std::mutex> lock(mutex);
        a_running = true;
        cv.notify_all();
        b_served_while_a_ran = cv.wait_for(
            lock, std::chrono::seconds(10), [&] { return b_served; });
        lock.unlock();
        std::this_thread::sleep_until(t0 + std::chrono::milliseconds(500));
        lock.lock();
        a_finished = true;
        cv.notify_all();
    });
    service::ServerOptions options;
    options.workers = 2;
    service::Server server(socket.path, &broker, options);

    util::Fd a = util::unixConnect(socket.path);
    service::writeFrame(a, makeRequest("shutdown").serialize());
    {
        std::unique_lock<std::mutex> lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return a_running; }));
    }

    util::Fd b = util::unixConnect(socket.path);
    constexpr int kPings = 100;
    std::string burst;
    for (int i = 0; i < kPings; ++i)
        burst += service::encodeFrame(makeRequest("ping").serialize());
    util::writeAll(b, burst.data(), burst.size());
    std::string payload;
    for (int i = 0; i < kPings; ++i) {
        ASSERT_TRUE(service::readFrame(b, payload)) << "reply " << i;
        service::Response r = service::Response::parse(payload);
        ASSERT_TRUE(r.ok) << r.message;
        EXPECT_EQ(r.args[0], "pong");
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        b_served = true;
    }
    cv.notify_all();

    ASSERT_TRUE(service::readFrame(a, payload));
    EXPECT_TRUE(service::Response::parse(payload).ok);
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(20),
                            [&] { return a_finished; }));
    EXPECT_TRUE(b_served_while_a_ran);
}

/** Lowers this process's soft RLIMIT_NOFILE; restores it at scope end. */
class LoweredFdLimit
{
  public:
    explicit LoweredFdLimit(rlim_t soft)
    {
        EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
        rlimit lowered = saved_;
        lowered.rlim_cur = soft;
        EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
    }
    ~LoweredFdLimit() { restore(); }
    LoweredFdLimit(const LoweredFdLimit &) = delete;
    LoweredFdLimit &operator=(const LoweredFdLimit &) = delete;

    void restore() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

  private:
    rlimit saved_{};
};

double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(ServiceServer, AcceptAtTheFdLimitDoesNotSpin)
{
    TempPath socket("service_test_fd_limit.sock");
    service::SessionBroker broker;
    service::Server server(socket.path, &broker);

    // The client's socket exists before the limit drops, so its
    // connect needs no new descriptor; the server's accept does.
    util::Fd client(::socket(AF_UNIX, SOCK_STREAM, 0));
    ASSERT_TRUE(client.valid());
    const timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(client.get(), SOL_SOCKET, SO_RCVTIMEO,
                           &timeout, sizeof(timeout)),
              0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int lowest_free = ::fcntl(client.get(), F_DUPFD, 0);
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);

    double cpu_s = 0.0;
    {
        // Every descriptor below the lowest free one is in use: no
        // new one can be made until the limit is restored.
        LoweredFdLimit limit(static_cast<rlim_t>(lowest_free));
        ASSERT_EQ(::connect(client.get(),
                            reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        const double cpu0 = processCpuSeconds();
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        cpu_s = processCpuSeconds() - cpu0;
    }
    EXPECT_LT(cpu_s, 0.05) << "accept spun while out of descriptors";

    // Once descriptors are available again the client is served.
    service::writeFrame(client, makeRequest("ping").serialize());
    std::string payload;
    ASSERT_TRUE(service::readFrame(client, payload));
    service::Response pong = service::Response::parse(payload);
    ASSERT_TRUE(pong.ok) << pong.message;
    EXPECT_EQ(pong.args[0], "pong");
}

// ---------------------------------------------------------------------
// Listener path probing (crash-leftover vs live daemon).

TEST(UtilSocket, UnixListenRefusesLivePathAndReclaimsStale)
{
    TempPath path("service_test_probe.sock");
    {
        // While a listener is alive, a second bind must refuse
        // rather than silently steal the path from a running daemon.
        util::Fd live = util::unixListen(path.path);
        EXPECT_THROW(util::unixListen(path.path), Error);
    }
    // The listener died without unlinking (a crash): the socket file
    // is stale, and the next bind reclaims it.
    util::Fd reclaimed = util::unixListen(path.path);
    EXPECT_TRUE(reclaimed.valid());
}

TEST(UtilSocket, UnixListenNeverTouchesANonSocketFile)
{
    TempPath path("service_test_probe_plain.txt");
    std::ofstream(path.path) << "precious data\n";
    EXPECT_THROW(util::unixListen(path.path), Error);
    // The file survives the refused bind, contents intact.
    std::ifstream is(path.path);
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "precious data");
}

} // namespace
} // namespace h2p
