/**
 * @file
 * Observability layer: metrics registry semantics, span aggregation
 * across worker threads, event log bounds, exporter round-trips,
 * and the end-to-end contract that enabling observability never
 * changes simulation results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "core/h2p_system.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace_span.h"
#include "sim/channels.h"
#include "sim/config.h"
#include "tests/support/fields.h"
#include "util/error.h"
#include "util/parallel.h"
#include "workload/trace_gen.h"

using namespace h2p;
using namespace h2p::obs;

// -------------------------------------------------------------- metrics

TEST(MetricsTest, CounterAccumulates)
{
    MetricsRegistry reg;
    Counter c = reg.counter("a.count");
    c.add();
    c.add(4);
    EXPECT_EQ(reg.counterValue("a.count"), 5u);
}

TEST(MetricsTest, SameNameSharesOneSlot)
{
    MetricsRegistry reg;
    Counter a = reg.counter("shared");
    Counter b = reg.counter("shared");
    a.add(2);
    b.add(3);
    EXPECT_EQ(reg.counterValue("shared"), 5u);
}

TEST(MetricsTest, DefaultHandlesAreInert)
{
    Counter c;
    Gauge g;
    HistogramMetric h;
    EXPECT_FALSE(c.valid());
    EXPECT_FALSE(g.valid());
    EXPECT_FALSE(h.valid());
    // Must not crash.
    c.add();
    g.set(1.0);
    h.observe(1.0);
}

TEST(MetricsTest, GaugeLastValueWins)
{
    MetricsRegistry reg;
    Gauge g = reg.gauge("temp");
    g.set(10.0);
    g.set(-2.5);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("temp"), -2.5);
}

TEST(MetricsTest, HandlesSurviveRegistryGrowth)
{
    // Slot storage must be stable: handles resolved early keep
    // working after many more registrations.
    MetricsRegistry reg;
    Counter first = reg.counter("first");
    for (int i = 0; i < 200; ++i)
        reg.counter("filler." + std::to_string(i)).add();
    first.add(7);
    EXPECT_EQ(reg.counterValue("first"), 7u);
}

TEST(MetricsTest, HistogramTracksMoments)
{
    MetricsRegistry reg;
    HistogramMetric h = reg.histogram("die_c", 0.0, 100.0, 10);
    h.observe(25.0);
    h.observe(75.0);
    h.observe(50.0);
    auto snaps = reg.histograms();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].count, 3u);
    EXPECT_DOUBLE_EQ(snaps[0].sum, 150.0);
    EXPECT_DOUBLE_EQ(snaps[0].min, 25.0);
    EXPECT_DOUBLE_EQ(snaps[0].max, 75.0);
    EXPECT_EQ(snaps[0].histogram.total(), 3u);
}

TEST(MetricsTest, HistogramReregistrationMustMatchBounds)
{
    MetricsRegistry reg;
    reg.histogram("h", 0.0, 1.0, 4);
    EXPECT_NO_THROW(reg.histogram("h", 0.0, 1.0, 4));
    EXPECT_THROW(reg.histogram("h", 0.0, 2.0, 4), Error);
}

TEST(MetricsTest, UnknownNamesThrow)
{
    MetricsRegistry reg;
    EXPECT_THROW(reg.counterValue("nope"), Error);
    EXPECT_THROW(reg.gaugeValue("nope"), Error);
    EXPECT_THROW(reg.counter(""), Error);
}

TEST(MetricsTest, SnapshotsAreSortedByName)
{
    MetricsRegistry reg;
    reg.counter("zebra");
    reg.counter("alpha");
    auto snap = reg.counters();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "alpha");
    EXPECT_EQ(snap[1].name, "zebra");
}

// ---------------------------------------------------------------- spans

TEST(SpanTest, NestedSpansBothRecord)
{
    SpanRegistry reg;
    SpanRegistry::SpanId outer = reg.id("outer");
    SpanRegistry::SpanId inner = reg.id("inner");
    {
        TraceSpan a(&reg, outer);
        {
            TraceSpan b(&reg, inner);
        }
    }
    EXPECT_EQ(reg.stat("outer").count, 1u);
    EXPECT_EQ(reg.stat("inner").count, 1u);
    // The inner span is enclosed by the outer one.
    EXPECT_LE(reg.stat("inner").total_ns, reg.stat("outer").total_ns);
}

TEST(SpanTest, NullRegistryIsInert)
{
    SpanRegistry reg;
    SpanRegistry::SpanId id = reg.id("never");
    {
        TraceSpan s(nullptr, id);
    }
    EXPECT_EQ(reg.stat("never").count, 0u);
}

TEST(SpanTest, StopIsIdempotent)
{
    SpanRegistry reg;
    SpanRegistry::SpanId id = reg.id("once");
    TraceSpan s(&reg, id);
    s.stop();
    s.stop();
    EXPECT_EQ(reg.stat("once").count, 1u);
}

TEST(SpanTest, AggregatesAcrossWorkerThreads)
{
    SpanRegistry reg;
    SpanRegistry::SpanId id = reg.id("chunk");
    const size_t n = 64;
    util::parallelForDynamic(n, 4, [&](size_t) {
        TraceSpan s(&reg, id);
        volatile double sink = 0.0;
        for (int i = 0; i < 100; ++i)
            sink = sink + static_cast<double>(i);
    });
    SpanRegistry::Stat st = reg.stat("chunk");
    EXPECT_EQ(st.count, n);
    EXPECT_GE(st.max_ns, st.min_ns);
    EXPECT_GE(st.total_ns, st.max_ns);
    EXPECT_GE(st.meanNs(), static_cast<double>(st.min_ns));
    EXPECT_LE(st.meanNs(), static_cast<double>(st.max_ns));
}

TEST(SpanTest, UnknownSpanThrows)
{
    SpanRegistry reg;
    EXPECT_THROW(reg.stat("missing"), Error);
}

// ------------------------------------------------------------ event log

TEST(EventLogTest, AppendsInOrder)
{
    EventLog log(16);
    log.append(0.0, 0, "fault", "circ0", "pump_failed");
    log.append(300.0, 1, "safe_mode", "circ0", "normal -> cold_fallback");
    auto events = log.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, "fault");
    EXPECT_EQ(events[1].step, 1);
    EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, CapacityBoundsRetention)
{
    EventLog log(2);
    for (int i = 0; i < 5; ++i)
        log.append(0.0, i, "k", "s", "d");
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.dropped(), 3u);
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, RejectsZeroCapacity)
{
    EXPECT_THROW(EventLog log(0), Error);
}

// ------------------------------------------------------------ exporters

TEST(ExporterTest, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ExporterTest, JsonlContainsEveryPrimitive)
{
    ObsParams p;
    p.enabled = true;
    Observability obs(p);
    obs.metrics().counter("c.one").add(3);
    obs.metrics().gauge("g.one").set(1.5);
    obs.metrics().histogram("h.one", 0.0, 10.0, 5).observe(4.0);
    {
        TraceSpan s(&obs.spans(), obs.spans().id("sp.one"));
    }
    obs.events().append(60.0, 2, "fault", "circ1", "pump_failed");

    std::ostringstream os;
    obs.writeJsonl(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"type\":\"counter\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"c.one\",\"value\":3"),
              std::string::npos);
    EXPECT_NE(out.find("\"type\":\"gauge\""), std::string::npos);
    EXPECT_NE(out.find("\"type\":\"histogram\""), std::string::npos);
    EXPECT_NE(out.find("\"type\":\"span\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"sp.one\""), std::string::npos);
    EXPECT_NE(out.find("\"type\":\"event\""), std::string::npos);
    EXPECT_NE(out.find("\"subject\":\"circ1\""), std::string::npos);

    // Every line is one object: starts with '{', ends with '}'.
    std::istringstream lines(out);
    std::string line;
    size_t count = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++count;
    }
    EXPECT_EQ(count, 5u);
}

TEST(ExporterTest, MetricsCsvHasHeaderAndRows)
{
    ObsParams p;
    p.enabled = true;
    Observability obs(p);
    obs.metrics().counter("a").add();
    obs.metrics().gauge("b").set(2.0);
    std::ostringstream os;
    obs.writeMetricsCsv(os);
    std::string out = os.str();
    EXPECT_NE(out.find("metric,kind,count,value,sum,min,max"),
              std::string::npos);
    EXPECT_NE(out.find("a,counter"), std::string::npos);
    EXPECT_NE(out.find("b,gauge"), std::string::npos);
}

TEST(ExporterTest, OverflowSurfacesDroppedEventsInBothExports)
{
    ObsParams p;
    p.enabled = true;
    p.max_events = 2;
    Observability obs(p);
    for (int i = 0; i < 5; ++i)
        obs.events().append(double(i), i, "fault", "circ1", "pump");
    EXPECT_EQ(obs.events().dropped(), 3u);

    std::ostringstream js;
    obs.writeJsonl(js);
    const std::string jsonl = js.str();
    EXPECT_NE(jsonl.find("\"type\":\"event_overflow\",\"dropped\":3"),
              std::string::npos);
    // The loss also travels as a uniform counter, so metric-only
    // consumers see it without scanning for the overflow record.
    EXPECT_NE(jsonl.find("\"type\":\"counter\",\"name\":"
                         "\"dropped_events\",\"value\":3"),
              std::string::npos);

    std::ostringstream cs;
    obs.writeMetricsCsv(cs);
    EXPECT_NE(cs.str().find("dropped_events,counter"),
              std::string::npos);
}

TEST(ExporterTest, NoDroppedEventsCounterWithoutOverflow)
{
    ObsParams p;
    p.enabled = true;
    Observability obs(p);
    obs.events().append(1.0, 1, "fault", "circ1", "pump");
    std::ostringstream js, cs;
    obs.writeJsonl(js);
    obs.writeMetricsCsv(cs);
    EXPECT_EQ(js.str().find("dropped_events"), std::string::npos);
    EXPECT_EQ(js.str().find("event_overflow"), std::string::npos);
    EXPECT_EQ(cs.str().find("dropped_events"), std::string::npos);
}

TEST(ExporterTest, SummaryMentionsEverySection)
{
    ObsParams p;
    p.enabled = true;
    Observability obs(p);
    obs.metrics().counter("run.steps").add(10);
    {
        TraceSpan s(&obs.spans(), obs.spans().id("step"));
    }
    std::ostringstream os;
    obs.writeSummary(os);
    std::string out = os.str();
    EXPECT_NE(out.find("Span timings"), std::string::npos);
    EXPECT_NE(out.find("Metrics"), std::string::npos);
    EXPECT_NE(out.find("Events: 0"), std::string::npos);
}

// -------------------------------------------------- system integration

namespace {

core::H2PConfig
smallConfig()
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 60;
    cfg.datacenter.servers_per_circulation = 20;
    return cfg;
}

workload::UtilizationTrace
smallTrace(size_t servers)
{
    workload::TraceGenerator gen(77);
    return gen.generate(workload::TraceGenParams{}, servers,
                        6.0 * 3600.0, 300.0);
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** examples/configs/resilience.ini with the thermal balancer on. */
sim::Config
balancedResilienceIni()
{
    sim::Config ini = sim::Config::load(
        std::string(H2P_SOURCE_DIR) + "/examples/configs/resilience.ini");
    ini.set("balancer", "enabled", "1");
    return ini;
}

/** The INI's configuration, collecting telemetry without exporting it. */
core::H2PConfig
inMemoryObs(const sim::Config &ini)
{
    core::H2PConfig cfg = core::configFromIni(ini);
    cfg.obs.jsonl_path.clear();
    return cfg;
}

} // namespace

TEST(ObsSystemTest, EnabledRunIsBitIdenticalToDisabled)
{
    workload::UtilizationTrace trace = smallTrace(60);

    core::H2PConfig plain = smallConfig();
    core::H2PConfig observed = smallConfig();
    observed.obs.enabled = true;

    core::RunResult a =
        core::H2PSystem(plain).run(trace, sched::Policy::TegOriginal);
    core::RunResult b = core::H2PSystem(observed).run(
        trace, sched::Policy::TegOriginal);

    EXPECT_EQ(test::firstDifferingField(a.summary, b.summary), "");
    for (const std::string &ch : a.recorder->channels()) {
        const auto &sa = a.recorder->series(ch);
        const auto &sb = b.recorder->series(ch);
        ASSERT_EQ(sa.size(), sb.size()) << ch;
        for (size_t i = 0; i < sa.size(); ++i)
            ASSERT_EQ(sa.at(i), sb.at(i)) << ch << "[" << i << "]";
    }
}

TEST(ObsSystemTest, ObservabilityCollectsRunTelemetry)
{
    // A clean run, and a resilient one whose decide stage is the
    // balancer (faults, safe mode and the watchdog all active).
    struct Input
    {
        const char *name;
        core::H2PConfig cfg;
        workload::UtilizationTrace trace;
        sched::Policy policy;
    };
    core::H2PConfig small = smallConfig();
    small.obs.enabled = true;
    const sim::Config ini = balancedResilienceIni();
    const Input inputs[] = {
        {"clean", small, smallTrace(60), sched::Policy::TegOriginal},
        {"resilience.ini + balancer", inMemoryObs(ini),
         core::makeTrace(core::traceRequestFromIni(ini)),
         sched::Policy::TegLoadBalance}};

    for (const Input &in : inputs) {
        SCOPED_TRACE(in.name);
        core::H2PSystem sys(in.cfg);
        core::RunResult r = sys.run(in.trace, in.policy);

        Observability *obs = sys.observability();
        ASSERT_NE(obs, nullptr);
        const size_t steps = in.trace.numSteps();
        EXPECT_EQ(obs->metrics().counterValue("run.steps"), steps);
        // The decision cache is on by default; hits + misses must
        // cover every choose() call the run made.
        EXPECT_GT(obs->metrics().counterValue("optimizer.cache_hits") +
                      obs->metrics().counterValue("optimizer.cache_misses"),
                  0u);
        EXPECT_EQ(obs->spans().stat("step").count, steps);
        EXPECT_EQ(obs->spans().stat("dc.evaluate").count, steps);
        EXPECT_EQ(obs->spans().stat("sched.decide").count, steps);
        // One run_start event.
        auto events = obs->events().snapshot();
        ASSERT_FALSE(events.empty());
        EXPECT_EQ(events[0].kind, "run");
        EXPECT_DOUBLE_EQ(r.summary.pre,
                         obs->metrics().gaugeValue("run.pre"));
    }
}

/**
 * One event as a line: kind, subject, `detail', time, step and every
 * field, numbers at round-trip precision.
 */
std::string
pinLine(const Event &e)
{
    std::ostringstream os;
    os << std::setprecision(17) << e.kind << ' ' << e.subject << " `"
       << e.detail << "' t=" << e.time_s << " step=" << e.step;
    for (const auto &[name, value] : e.fields)
        os << ' ' << name << '=' << value;
    return os.str();
}

/**
 * The whole event log of resilience.ini under the balancer and the
 * load-balance policy — faults, safe-mode transitions, watchdog trips,
 * balancer drains and the run marker — pinned event by event.
 */
TEST(ObsSystemTest, EventLogIsPinnedEventByEvent)
{
    const sim::Config ini = balancedResilienceIni();
    core::H2PSystem sys(inMemoryObs(ini));
    sys.run(core::makeTrace(core::traceRequestFromIni(ini)),
            sched::Policy::TegLoadBalance);

    const std::vector<Event> events =
        sys.observability()->events().snapshot();
    std::vector<std::string> got;
    for (const Event &e : events)
        got.push_back(pinLine(e));
    const std::vector<std::string> want = {
        "run system `run_start policy=TEG_LoadBalance' t=0 step=0 "
        "num_steps=144 dt_s=300",
        "fault circ2 `pump_degraded' t=75.734686960156608 step=1 server=0 "
        "magnitude=0.39818917049657887 duration_s=0",
        "safe_mode circ2 `normal -> cold_fallback' t=600 step=2",
        "balancer circ2 `drain_start' t=600 step=2 amount=0",
        "fault circ1 `teg_short_circuit' t=1092.4791547424441 step=4 "
        "server=6 magnitude=1 duration_s=0",
        "fault circ2 `teg_short_circuit' t=6562.5110913515691 step=22 "
        "server=45 magnitude=1 duration_s=0",
        "fault circ0 `teg_short_circuit' t=6916.8468763329902 step=24 "
        "server=38 magnitude=1 duration_s=0",
        "fault circ3 `teg_open_circuit' t=12249.695673140266 step=41 "
        "server=9 magnitude=0 duration_s=0",
        "fault circ1 `pump_degraded' t=13624.81963467995 step=46 server=0 "
        "magnitude=0.067539751253475944 duration_s=0",
        "watchdog cluster `thermal trip' t=13800 step=46 new_trips=50 "
        "throttled_servers=50",
        "fault circ1 `teg_short_circuit' t=13986.403695089564 step=47 "
        "server=32 magnitude=1 duration_s=0",
        "safe_mode circ1 `normal -> cold_fallback' t=14100 step=47",
        "balancer circ1 `drain_start' t=14100 step=47 amount=0",
        "fault circ1 `teg_open_circuit' t=15669.0308494524 step=53 "
        "server=9 magnitude=0 duration_s=0",
        "fault circ1 `teg_short_circuit' t=22293.467474592137 step=75 "
        "server=5 magnitude=1 duration_s=0",
        "fault circ0 `pump_degraded' t=23420.07015913113 step=79 server=0 "
        "magnitude=0.42957592932033717 duration_s=0",
        "safe_mode circ0 `normal -> cold_fallback' t=24000 step=80",
        "balancer circ0 `drain_start' t=24000 step=80 amount=0",
        "fault circ3 `teg_short_circuit' t=25207.064645872801 step=85 "
        "server=25 magnitude=1 duration_s=0",
        "fault circ1 `pump_degraded' t=30730.273901878158 step=103 "
        "server=0 magnitude=0.064082054016773637 duration_s=0",
        "fault circ2 `teg_short_circuit' t=38152.843509786282 step=128 "
        "server=15 magnitude=1 duration_s=0",
        "fault circ1 `teg_short_circuit' t=40605.969688390527 step=136 "
        "server=33 magnitude=1 duration_s=0",
    };
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "event " << i;
}

TEST(ObsSystemTest, JsonlExportContainsStepsFaultsAndMetrics)
{
    const std::string path = tempPath("h2p_obs_test.jsonl");

    core::H2PConfig cfg = smallConfig();
    cfg.obs.enabled = true;
    cfg.obs.jsonl_path = path;
    // A scripted pump failure halfway through the run.
    fault::FaultEvent fe;
    fe.time_s = 3.0 * 3600.0;
    fe.kind = fault::FaultKind::PumpFailed;
    fe.circulation = 1;
    cfg.faults.scripted.push_back(fe);
    cfg.safe_mode.enabled = true;

    core::H2PSystem sys(cfg);
    workload::UtilizationTrace trace = smallTrace(60);
    sys.run(trace, sched::Policy::TegOriginal);

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::stringstream ss;
    ss << is.rdbuf();
    std::string out = ss.str();
    std::remove(path.c_str());

    EXPECT_NE(out.find("\"type\":\"run\""), std::string::npos);
    EXPECT_NE(out.find("\"type\":\"step\""), std::string::npos);
    EXPECT_NE(out.find("\"teg_w_per_server\":"), std::string::npos);
    EXPECT_NE(out.find("\"cpu_w_per_server\":"), std::string::npos);
    EXPECT_NE(out.find("\"plant_w\":"), std::string::npos);
    EXPECT_NE(out.find("\"kind\":\"fault\""), std::string::npos);
    EXPECT_NE(out.find("pump_failed"), std::string::npos);
    EXPECT_NE(out.find("optimizer.cache_hits"), std::string::npos);
    EXPECT_NE(out.find("\"type\":\"span\""), std::string::npos);
}

TEST(ObsSystemTest, ExportsCreateTheirMissingDirectories)
{
    // examples/configs/resilience.ini exports to a relative
    // bench_results/ path; a run from a directory without it must
    // still write its telemetry instead of failing after the run.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "h2p_obs_test_new";
    std::filesystem::remove_all(dir);
    const std::string jsonl = (dir / "a" / "run.jsonl").string();
    const std::string csv = (dir / "b" / "metrics.csv").string();

    core::H2PConfig cfg = smallConfig();
    cfg.obs.enabled = true;
    cfg.obs.jsonl_path = jsonl;
    cfg.obs.csv_path = csv;
    core::H2PSystem sys(cfg);
    workload::UtilizationTrace trace = smallTrace(60);
    core::SimSession session =
        sys.startSession(trace, sched::Policy::TegOriginal);
    session.runToCompletion();
    session.finish();

    for (const std::string &path : {jsonl, csv}) {
        std::ifstream is(path);
        ASSERT_TRUE(is.good()) << path;
        std::stringstream ss;
        ss << is.rdbuf();
        EXPECT_FALSE(ss.str().empty()) << path;
    }
    std::filesystem::remove_all(dir);
}

TEST(ObsSystemTest, RunRecorderIsFrozen)
{
    core::H2PConfig cfg = smallConfig();
    core::H2PSystem sys(cfg);
    workload::UtilizationTrace trace = smallTrace(60);
    core::RunResult r = sys.run(trace, sched::Policy::TegOriginal);

    ASSERT_TRUE(r.recorder->frozen());
    // Existing channels stay accessible ...
    EXPECT_NO_THROW(r.recorder->channel(sim::channels::kTegWPerServer));
    // ... but late registration is a loud error, not a ragged column.
    EXPECT_THROW(r.recorder->channel("made_up_late"), Error);
    EXPECT_THROW(r.recorder->record("also_late", 1.0), Error);
}

TEST(ObsSystemTest, NonFiniteSummaryIsRejected)
{
    // An absurd parasitic power drives CPU power (and thus PRE) to
    // inf; the run must fail loudly instead of returning inf/NaN.
    core::H2PConfig cfg = smallConfig();
    cfg.datacenter.server.thermal.parasitic_w = 1e308;
    core::H2PSystem sys(cfg);
    workload::UtilizationTrace trace = smallTrace(60);
    EXPECT_THROW(sys.run(trace, sched::Policy::TegOriginal), Error);
}
