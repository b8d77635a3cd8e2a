/**
 * @file
 * SimSession tests: per-sample equivalence of the incremental
 * session API with batch run(), bit-identical checkpoint/resume for
 * clean and faulted runs (including onto a fresh system), checkpoint
 * rejection paths, the evaluateStep() fault-config guard and resolved
 * recorder channel handles.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "control/stages.h"
#include "control/thermal_balancer.h"
#include "core/config_io.h"
#include "core/h2p_system.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "sim/channels.h"
#include "sim/config.h"
#include "tests/support/fields.h"
#include "tests/support/fn_stage.h"
#include "tests/support/watchdog_reference.h"
#include "util/error.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace {

// Sessions point into their system: a copied or moved-from system
// would leave them reading another system's configuration.
static_assert(!std::is_copy_constructible_v<core::H2PSystem> &&
              !std::is_copy_assignable_v<core::H2PSystem>);
static_assert(!std::is_move_constructible_v<core::H2PSystem> &&
              !std::is_move_assignable_v<core::H2PSystem>);

bool
sameBits(double a, double b)
{
    uint64_t x, y;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x == y;
}

void
expectSameChannels(const sim::Recorder &a, const sim::Recorder &b)
{
    ASSERT_EQ(a.channels(), b.channels());
    for (const std::string &name : a.channels()) {
        const auto &sa = a.series(name).samples();
        const auto &sb = b.series(name).samples();
        ASSERT_EQ(sa.size(), sb.size()) << name;
        for (size_t i = 0; i < sa.size(); ++i)
            ASSERT_TRUE(sameBits(sa[i], sb[i]))
                << name << " sample " << i << ": " << sa[i]
                << " != " << sb[i];
    }
}

core::H2PConfig
smallConfig()
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 40;
    cfg.datacenter.servers_per_circulation = 20;
    return cfg;
}

/**
 * A scenario exercising every checkpointed subsystem: a degraded
 * pump (health + flow mismatch), a die sensor stuck across a window
 * (latch state), a TEG fault (lost-harvest accounting) and a flow
 * dropout, under safe-mode control with the watchdog on.
 */
core::H2PConfig
faultedConfig()
{
    core::H2PConfig cfg = smallConfig();
    cfg.safe_mode.enabled = true;
    cfg.safe_mode.watchdog_enabled = true;
    auto &f = cfg.faults;
    f.scripted.push_back(
        {300.0, fault::FaultKind::PumpDegraded, 0, 0, 0.4, 0.0});
    f.scripted.push_back(
        {600.0, fault::FaultKind::DieSensorStuck, 0, 0, 0.0, 1800.0});
    f.scripted.push_back(
        {900.0, fault::FaultKind::TegOpenCircuit, 1, 3, 0.0, 0.0});
    f.scripted.push_back(
        {1200.0, fault::FaultKind::FlowSensorDropout, 1, 0, 0.0,
         900.0});
    return cfg;
}

workload::UtilizationTrace
makeTrace(uint64_t seed = 11, size_t servers = 40,
          double duration_s = 2.0 * 3600.0)
{
    workload::TraceGenerator gen(seed);
    return gen.generate(workload::TraceGenParams::forProfile(
                            workload::TraceProfile::Drastic),
                        servers, duration_s);
}

/** RAII temp-file path cleaned up on scope exit. */
struct TempPath
{
    explicit TempPath(const std::string &name) : path(name) {}
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

// ------------------------------------------------ session == run()

TEST(SessionTest, StepLoopMatchesBatchRunClean)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();

    auto batch = sys.run(trace, sched::Policy::TegLoadBalance);

    auto session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    EXPECT_EQ(session.numSteps(), trace.numSteps());
    while (!session.done())
        session.step();
    auto stepped = session.finish();

    EXPECT_EQ(test::firstDifferingField(batch.summary, stepped.summary), "");
    expectSameChannels(*batch.recorder, *stepped.recorder);
}

TEST(SessionTest, StepLoopMatchesBatchRunFaulted)
{
    core::H2PSystem sys(faultedConfig());
    auto trace = makeTrace();

    auto batch = sys.run(trace, sched::Policy::TegOriginal);
    EXPECT_GT(batch.summary.fault_events, 0u);

    auto session = sys.startSession(trace, sched::Policy::TegOriginal);
    session.runToCompletion();
    auto stepped = session.finish();

    EXPECT_EQ(test::firstDifferingField(batch.summary, stepped.summary), "");
    expectSameChannels(*batch.recorder, *stepped.recorder);
}

// ------------------------------------------- checkpoint round trips

TEST(SessionTest, CheckpointRoundTripCleanBitIdentical)
{
    TempPath ck("session_test_clean.ckpt");
    auto trace = makeTrace();

    core::H2PSystem sys(smallConfig());
    auto full = sys.run(trace, sched::Policy::TegLoadBalance);

    auto first =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    for (size_t i = 0; i < trace.numSteps() / 2; ++i)
        first.step();
    first.saveCheckpoint(ck.path);

    // Restore into a *fresh* system built from the same config: no
    // state may leak through anything but the checkpoint file.
    core::H2PSystem sys2(smallConfig());
    auto resumed = sys2.resumeSession(ck.path, trace);
    EXPECT_EQ(resumed.cursor(), trace.numSteps() / 2);
    EXPECT_EQ(resumed.policy(), sched::Policy::TegLoadBalance);
    resumed.runToCompletion();
    auto rest = resumed.finish();

    EXPECT_EQ(test::firstDifferingField(full.summary, rest.summary), "");
    expectSameChannels(*full.recorder, *rest.recorder);
}

TEST(SessionTest, CheckpointRoundTripFaultedMidSensorWindow)
{
    TempPath ck("session_test_faulted.ckpt");
    auto trace = makeTrace();

    core::H2PSystem sys(faultedConfig());
    auto full = sys.run(trace, sched::Policy::TegOriginal);

    // Checkpoint inside the stuck-sensor window (starts at 600 s) so
    // the latch, the armed windows, the degraded-pump health and the
    // safe-mode holds all carry real state.
    const double dt = trace.dt();
    size_t at = static_cast<size_t>(900.0 / dt) + 1;
    ASSERT_LT(at, trace.numSteps());

    auto first = sys.startSession(trace, sched::Policy::TegOriginal);
    while (first.cursor() < at)
        first.step();
    first.saveCheckpoint(ck.path);

    core::H2PSystem sys2(faultedConfig());
    auto resumed = sys2.resumeSession(ck.path, trace);
    resumed.runToCompletion();
    auto rest = resumed.finish();

    EXPECT_EQ(test::firstDifferingField(full.summary, rest.summary), "");
    expectSameChannels(*full.recorder, *rest.recorder);
}

TEST(SessionTest, CheckpointResumesAcrossThreadCounts)
{
    TempPath ck("session_test_threads.ckpt");
    auto trace = makeTrace();

    // Start on one system, resume on a second one built from the same
    // configuration: the checkpoint must carry across.
    core::H2PSystem sys_first(faultedConfig());
    auto full = sys_first.run(trace, sched::Policy::TegLoadBalance);

    auto first =
        sys_first.startSession(trace, sched::Policy::TegLoadBalance);
    for (size_t i = 0; i < trace.numSteps() / 3; ++i)
        first.step();
    first.saveCheckpoint(ck.path);

    core::H2PSystem sys_second(faultedConfig());
    auto resumed = sys_second.resumeSession(ck.path, trace);
    resumed.runToCompletion();
    auto rest = resumed.finish();

    EXPECT_EQ(test::firstDifferingField(full.summary, rest.summary), "");
    expectSameChannels(*full.recorder, *rest.recorder);
}

// ------------------------------------------------ v3 layout guard

/**
 * A test-local decoder of the v3 checkpoint file, written from the
 * layout the session documents (magic | version | payload length |
 * payload | FNV-1a footer, then the payload field by field) and
 * deliberately independent of the session's own serializer: if save
 * and load ever drift together, this walk still pins the bytes.
 * Every read is bounds-checked; a short read marks the walk failed.
 */
class LayoutWalk
{
  public:
    LayoutWalk(const std::string &bytes, size_t begin, size_t end)
        : b_(bytes), pos_(begin), end_(end)
    {
    }

    uint64_t le(size_t n)
    {
        if (n > end_ - pos_) {
            ok_ = false;
            pos_ = end_;
            return 0;
        }
        uint64_t v = 0;
        for (size_t i = 0; i < n; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<unsigned char>(b_[pos_ + i]))
                 << (8 * i);
        pos_ += n;
        return v;
    }

    uint8_t u8() { return static_cast<uint8_t>(le(1)); }
    uint32_t u32() { return static_cast<uint32_t>(le(4)); }
    uint64_t u64() { return le(8); }

    double f64()
    {
        uint64_t bits = le(8);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str()
    {
        uint64_t n = u64();
        if (n > end_ - pos_) {
            ok_ = false;
            pos_ = end_;
            return {};
        }
        std::string s = b_.substr(pos_, n);
        pos_ += n;
        return s;
    }

    bool ok() const { return ok_; }
    bool atEnd() const { return pos_ == end_; }
    size_t pos() const { return pos_; }

  private:
    const std::string &b_;
    size_t pos_;
    size_t end_;
    bool ok_ = true;
};

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

/** FNV-1a over @p payload, as the footer stores it. */
uint64_t
fnv1a(const std::string &payload)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : payload) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x00000100000001b3ull;
    }
    return h;
}

/** Decode one thermal-balancer stage blob and check it against the
 *  live stage. */
void
walkBalancerBlob(const std::string &blob,
                 const control::ThermalBalancer &bal, size_t num_circ)
{
    LayoutWalk w(blob, 0, blob.size());
    ASSERT_EQ(w.u64(), num_circ);
    for (size_t c = 0; c < num_circ; ++c) {
        const control::CirculationView &row = bal.view()[c];
        EXPECT_EQ(w.u8(), static_cast<uint8_t>(row.mode)) << c;
        EXPECT_LE(w.u8(), 1u);          // manual drain latch
        EXPECT_LE(w.u8(), 1u);          // drain-empty edge latch
        EXPECT_TRUE(sameBits(w.f64(), row.drained_util)) << c;
        w.f64(); // feedback headroom
        w.f64(); // feedback TEG power
        EXPECT_TRUE(sameBits(w.f64(), row.avg_util)) << c;
        EXPECT_TRUE(sameBits(w.f64(), row.dev_util)) << c;
    }
    w.u8(); // have_feedback
    const control::BalancerStats &st = bal.stats();
    EXPECT_EQ(w.u64(), st.migrations);
    EXPECT_EQ(w.u64(), st.local_moves);
    EXPECT_EQ(w.u64(), st.pulls);
    EXPECT_EQ(w.u64(), st.drains_started);
    EXPECT_EQ(w.u64(), st.drains_completed);
    EXPECT_TRUE(sameBits(w.f64(), st.max_abs_dev));
    EXPECT_EQ(w.u8(), st.converged ? 1u : 0u);
    EXPECT_EQ(w.u64(), st.stale_steps);
    EXPECT_TRUE(w.ok());
    EXPECT_TRUE(w.atEnd()) << "balancer blob has trailing bytes";
}

/**
 * Walk a whole v3 checkpoint of @p session field by field: framing,
 * header, control-plane section, accumulators, recorded channels and
 * (for resilient runs) the fault/watchdog/safe-mode block. Asserts
 * that every byte is consumed and that the cursor, channel names and
 * sample bits equal the live session's. Returns the number of held
 * die-sensor latches so callers can assert the latch state is live;
 * @p watchdog, when given, receives the watchdog's bytes.
 */
size_t
walkCheckpointV3(const std::string &bytes, core::SimSession &session,
                 const core::H2PSystem &sys,
                 const workload::UtilizationTrace &trace,
                 std::string *watchdog = nullptr)
{
    size_t held_die_latches = 0;
    const size_t num_circ = sys.datacenter().numCirculations();
    const size_t servers = sys.datacenter().numServers();

    // Framing: "H2PCKPT1" | u32 version | u64 length | payload | u64.
    EXPECT_EQ(bytes.substr(0, 8), "H2PCKPT1");
    LayoutWalk head(bytes, 8, bytes.size());
    EXPECT_EQ(head.u32(), 3u);
    const uint64_t len = head.u64();
    EXPECT_EQ(bytes.size(), 8u + 4u + 8u + len + 8u);
    if (bytes.size() != 8u + 4u + 8u + len + 8u)
        return 0;
    const std::string payload = bytes.substr(20, len);
    LayoutWalk foot(bytes, 20 + len, bytes.size());
    EXPECT_EQ(foot.u64(), fnv1a(payload));
    EXPECT_TRUE(foot.atEnd());

    LayoutWalk w(payload, 0, payload.size());
    w.u64(); // configuration fingerprint
    EXPECT_EQ(w.u64(), trace.fingerprint());
    EXPECT_EQ(w.u32(),
              session.policy() == sched::Policy::TegLoadBalance ? 1u
                                                                 : 0u);
    const bool resilient = w.u8() != 0;
    EXPECT_EQ(resilient, sys.config().faults.enabled() ||
                             sys.config().safe_mode.enabled);
    EXPECT_EQ(w.u64(), trace.numSteps());
    EXPECT_TRUE(sameBits(w.f64(), trace.dt()));
    const uint64_t cursor = w.u64();
    EXPECT_EQ(cursor, session.cursor());

    // Control plane: custom flag, then (name, bytes) stage blobs.
    EXPECT_EQ(w.u8(), 0u);
    const uint64_t blobs = w.u64();
    for (uint64_t i = 0; i < blobs; ++i) {
        const std::string name = w.str();
        const std::string blob = w.str();
        EXPECT_EQ(name, control::ThermalBalancer::kName);
        const control::ControlStage *stage =
            session.pipeline()->find(name);
        EXPECT_NE(stage, nullptr) << name;
        if (stage != nullptr)
            walkBalancerBlob(
                blob,
                static_cast<const control::ThermalBalancer &>(*stage),
                num_circ);
    }
    EXPECT_EQ(blobs, sys.config().balancer.enabled &&
                             session.policy() ==
                                 sched::Policy::TegLoadBalance
                         ? 1u
                         : 0u);

    // Summary accumulators: five f64 energy sums, the safe-step
    // counter, then one safe-step counter per circulation.
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(std::isfinite(w.f64()));
    EXPECT_LE(w.u64(), cursor); // safe steps
    EXPECT_EQ(w.u64(), num_circ);
    for (size_t c = 0; c < num_circ; ++c)
        EXPECT_LE(w.u64(), cursor);

    // Recorded channels, in the recorder's (sorted) order.
    const std::vector<std::string> names =
        session.recorder().channels();
    EXPECT_EQ(w.u64(), names.size());
    for (const std::string &name : names) {
        EXPECT_EQ(w.str(), name);
        const auto &samples = session.recorder().series(name).samples();
        EXPECT_EQ(w.u64(), cursor) << name;
        EXPECT_EQ(samples.size(), cursor) << name;
        for (size_t k = 0; k < samples.size(); ++k)
            EXPECT_TRUE(sameBits(w.f64(), samples[k]))
                << name << " sample " << k;
    }

    if (resilient) {
        // Fault injector: the sensor latches.
        EXPECT_EQ(w.u64(), num_circ);
        for (size_t c = 0; c < num_circ; ++c) {
            const uint8_t die_held = w.u8();
            EXPECT_LE(die_held, 1u);
            held_die_latches += die_held;
            w.f64();
            EXPECT_LE(w.u8(), 1u); // flow latch held
            w.f64();
        }
        // Watchdog: server count, caps, backlogs, trip flags, trip
        // events, deferred work.
        const size_t watchdog_begin = w.pos();
        EXPECT_EQ(w.u64(), servers);
        for (size_t i = 0; i < servers; ++i) {
            double cap = w.f64();
            EXPECT_GE(cap, 0.0);
            EXPECT_LE(cap, 1.0);
        }
        for (size_t i = 0; i < servers; ++i)
            EXPECT_GE(w.f64(), 0.0);
        for (size_t i = 0; i < servers; ++i)
            EXPECT_LE(w.u8(), 1u);
        w.u64();
        EXPECT_GE(w.f64(), 0.0);
        if (watchdog != nullptr)
            *watchdog = payload.substr(watchdog_begin,
                                       w.pos() - watchdog_begin);
        // Safety monitor: one record per circulation — rate-check
        // baseline, hold, held and current action, then the readings
        // last fed and the commanded flow. The degraded actions are
        // the ones the last step recorded.
        size_t degraded = 0;
        for (size_t c = 0; c < num_circ; ++c) {
            w.f64();
            EXPECT_LE(w.u8(), 1u);
            w.u64();
            EXPECT_LE(w.u32(), 2u);
            const uint32_t action = w.u32();
            EXPECT_LE(action, 2u);
            degraded += action != 0 ? 1 : 0;
            w.f64();
            EXPECT_LE(w.u8(), 1u); // die reading valid
            w.f64();
            EXPECT_LE(w.u8(), 1u); // flow reading valid
            EXPECT_TRUE(std::isfinite(w.f64()));
        }
        const auto &modes =
            session.recorder()
                .series(sim::channels::kSafeModeCirculations)
                .samples();
        EXPECT_EQ(static_cast<double>(degraded),
                  modes.empty() ? 0.0 : modes.back());
    }
    EXPECT_TRUE(w.ok()) << "checkpoint payload ended early";
    EXPECT_TRUE(w.atEnd()) << "checkpoint payload has "
                           << payload.size() - w.pos()
                           << " undecoded bytes";
    return held_die_latches;
}

/** faultedConfig() plus resilience.ini-style random fault rates. */
core::H2PConfig
resilienceStyleConfig()
{
    core::H2PConfig cfg = faultedConfig();
    auto &f = cfg.faults;
    f.seed = 7;
    f.pump_degrade_per_circ_year = 150;
    f.pump_fail_per_circ_year = 30;
    f.teg_open_per_server_year = 15;
    f.teg_short_per_server_year = 30;
    f.chiller_outages_per_year = 150;
    f.die_sensor_faults_per_circ_year = 150;
    f.flow_sensor_faults_per_circ_year = 75;
    f.outage_duration_hours = 2;
    f.sensor_fault_duration_hours = 6;
    cfg.safe_mode.margin_c = 3;
    cfg.safe_mode.flow_tolerance = 0.15;
    cfg.safe_mode.hold_steps = 3;
    return cfg;
}

TEST(SessionTest, CheckpointV3LayoutIsPinnedFieldByField)
{
    TempPath ck("session_test_layout.ckpt");
    auto trace = makeTrace();

    core::H2PConfig balancer = smallConfig();
    balancer.balancer.enabled = true;

    struct Case
    {
        const char *what;
        core::H2PConfig cfg;
        sched::Policy policy;
        size_t at;
    };
    const std::vector<Case> cases = {
        {"clean", smallConfig(), sched::Policy::TegOriginal, 4},
        {"faulted", resilienceStyleConfig(),
         sched::Policy::TegLoadBalance, 4},
        {"balancer", balancer, sched::Policy::TegLoadBalance,
         trace.numSteps() / 2},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        core::H2PSystem sys(c.cfg);
        auto session = sys.startSession(trace, c.policy);
        while (session.cursor() < c.at)
            session.step();
        session.saveCheckpoint(ck.path);
        const std::string bytes = readFile(ck.path);
        size_t held = walkCheckpointV3(bytes, session, sys, trace);
        // The scripted die-sensor stuck window (600 s onward) is
        // latched by step 4 of the faulted run.
        if (std::string(c.what) == "faulted") {
            EXPECT_GE(held, 1u);
        }

        // The file the session reads back re-saves to the same bytes.
        auto resumed = sys.resumeSession(ck.path, trace);
        resumed.saveCheckpoint(ck.path);
        EXPECT_EQ(readFile(ck.path), bytes);
    }
}

/**
 * A file sealed as version 2 (the layout before the monitor owned the
 * readings) is refused by its version number, before its payload is
 * read, and the message names both versions.
 */
TEST(SessionTest, RefusesAVersion2Checkpoint)
{
    TempPath ck("session_test_v2.ckpt");
    auto trace = makeTrace();
    core::H2PSystem sys(resilienceStyleConfig());
    auto session = sys.startSession(trace, sched::Policy::TegOriginal);
    for (size_t i = 0; i < 4; ++i)
        session.step();
    session.saveCheckpoint(ck.path);
    const std::string v3 = readFile(ck.path);
    ASSERT_GT(v3.size(), 28u);
    const std::string payload = v3.substr(20, v3.size() - 28);

    // magic | u32 version | u64 length | payload | FNV-1a u64, little
    // endian, sealed by hand.
    auto le = [](uint64_t v, size_t n) {
        std::string out;
        for (size_t i = 0; i < n; ++i)
            out.push_back(static_cast<char>(v >> (8 * i)));
        return out;
    };
    const std::string v2 = "H2PCKPT1" + le(2, 4) + le(payload.size(), 8) +
                           payload + le(fnv1a(payload), 8);
    {
        std::ofstream os(ck.path, std::ios::binary);
        os.write(v2.data(), static_cast<std::streamsize>(v2.size()));
    }
    try {
        sys.resumeSession(ck.path, trace);
        FAIL() << "a version 2 checkpoint was accepted";
    } catch (const Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("has version 2"), std::string::npos) << what;
        EXPECT_NE(what.find("reads version 3"), std::string::npos) << what;
    }
}

/**
 * A resilient safe-mode run checkpointed at its edge cursors — before
 * any step (no readings yet), after the first step (the readings
 * first apply at the next step) and before the last step — and
 * resumed on a fresh system equals the uninterrupted run, under both
 * policies with [balancer] off and on.
 */
TEST(SessionTest, ResilientRunResumesFromItsEdgeCursors)
{
    TempPath ck("session_test_edges.ckpt");
    auto trace = makeTrace();
    for (bool balancer : {false, true}) {
        core::H2PConfig cfg = resilienceStyleConfig();
        cfg.balancer.enabled = balancer;
        for (sched::Policy policy : {sched::Policy::TegOriginal,
                                     sched::Policy::TegLoadBalance}) {
            core::H2PSystem sys(cfg);
            const auto full = sys.run(trace, policy);
            ASSERT_GT(full.summary.safe_mode_steps, 0u);
            for (size_t at : {size_t{0}, size_t{1}, trace.numSteps() - 1}) {
                SCOPED_TRACE(::testing::Message()
                             << sched::toString(policy) << " balancer "
                             << balancer << " cursor " << at);
                auto first = sys.startSession(trace, policy);
                while (first.cursor() < at)
                    first.step();
                first.saveCheckpoint(ck.path);

                core::H2PSystem fresh(cfg);
                auto resumed = fresh.resumeSession(ck.path, trace);
                EXPECT_EQ(resumed.cursor(), at);
                resumed.runToCompletion();
                const auto rest = resumed.finish();
                EXPECT_EQ(
                    test::firstDifferingField(full.summary, rest.summary),
                    "");
                expectSameChannels(*full.recorder, *rest.recorder);
            }
        }
    }
}

/** examples/configs/resilience.ini without its telemetry export. */
sim::Config
resilienceIni()
{
    sim::Config ini = sim::Config::load(
        std::string(H2P_SOURCE_DIR) + "/examples/configs/resilience.ini");
    ini.set("obs", "enabled", "0");
    return ini;
}

/**
 * resilience.ini (minus its telemetry export) checkpointed while the
 * watchdog holds throttled servers. The full-scan reference watchdog
 * is driven next to the session on the same requests and die
 * temperatures: the shaped utilizations agree at every step, and the
 * checkpoint's watchdog bytes are exactly what the reference's visit
 * writes for that state. A resumed session rebuilds the active set
 * from them and finishes bit-identical to the uninterrupted run.
 */
TEST(SessionTest, MidThrottleCheckpointMatchesFullScanWatchdog)
{
    TempPath ck("session_test_throttled.ckpt");
    const sim::Config ini = resilienceIni();
    const workload::UtilizationTrace trace =
        core::makeTrace(core::traceRequestFromIni(ini));
    const core::H2PConfig cfg = core::configFromIni(ini);
    ASSERT_TRUE(cfg.safe_mode.enabled && cfg.safe_mode.watchdog_enabled);

    for (sched::Policy policy :
         {sched::Policy::TegOriginal, sched::Policy::TegLoadBalance}) {
        SCOPED_TRACE(sched::toString(policy));
        core::H2PSystem sys(cfg);
        const auto full = sys.run(trace, policy);
        ASSERT_GT(full.summary.throttle_events, 0u);

        fault::WatchdogParams wp;
        wp.trip_c = cfg.datacenter.server.thermal.max_operating_c;
        wp.throttle_factor = cfg.safe_mode.throttle_factor;
        wp.recovery_margin_c = cfg.safe_mode.recovery_margin_c;
        wp.release_step = cfg.safe_mode.release_step;
        oracle::FullScanWatchdog ref(trace.numServers(), wp);

        // Step to the first interval that leaves servers throttled
        // with work backed up behind them.
        auto session = sys.startSession(trace, policy);
        const auto &throttled = session.recorder()
                                    .series(sim::channels::kThrottledServers)
                                    .samples();
        while (!session.done()) {
            std::vector<double> shaped = trace.step(session.cursor());
            ref.shapeInPlace(shaped, trace.dt());
            session.step();
            const std::vector<double> &applied = session.lastUtils();
            ASSERT_EQ(applied.size(), shaped.size());
            for (size_t i = 0; i < shaped.size(); ++i)
                ASSERT_EQ(applied[i], shaped[i])
                    << "server " << i << " at step " << session.cursor();
            ref.observe(session.lastState().servers.die_temp_c);
            ASSERT_EQ(throttled.back(),
                      static_cast<double>(ref.numThrottled()));
            if (ref.numThrottled() > 0 &&
                ref.backlogSeconds(trace.dt()) > 0.0)
                break;
        }
        ASSERT_FALSE(session.done()) << "no throttled step to checkpoint";

        session.saveCheckpoint(ck.path);
        std::string watchdog;
        walkCheckpointV3(readFile(ck.path), session, sys, trace, &watchdog);
        EXPECT_EQ(watchdog, oracle::visitBytes(ref));

        auto resumed = sys.resumeSession(ck.path, trace);
        resumed.runToCompletion();
        auto rest = resumed.finish();
        EXPECT_EQ(test::firstDifferingField(full.summary, rest.summary), "");
        expectSameChannels(*full.recorder, *rest.recorder);
    }
}

/**
 * A -0 request passes a quiet server unshaped (the full-scan watchdog
 * turned it into +0 with u + 0.0). Nothing downstream may tell the
 * two apart: a resilient run over a trace with -0 entries — single
 * servers and a whole circulation — equals the run over the same
 * trace with +0 in their place, step by step and in its export.
 */
TEST(SessionTest, NegativeZeroRequestsLeaveResilientRunUnchanged)
{
    const sim::Config ini = resilienceIni();
    const workload::UtilizationTrace base =
        core::makeTrace(core::traceRequestFromIni(ini));
    const size_t per_circ = core::configFromIni(ini)
                                .datacenter.servers_per_circulation;
    workload::UtilizationTrace neg(base.numServers(), base.dt());
    workload::UtilizationTrace pos(base.numServers(), base.dt());
    for (size_t k = 0; k < base.numSteps(); ++k) {
        std::vector<double> a = base.step(k), b = base.step(k);
        for (size_t i = 0; i < a.size(); ++i) {
            // Every third server on even steps; all of circulation 1
            // on every fourth step.
            if ((i % 3 == k % 3 && k % 2 == 0) ||
                (i / per_circ == 1 && k % 4 == 1)) {
                a[i] = -0.0;
                b[i] = 0.0;
            }
        }
        neg.addStep(std::move(a));
        pos.addStep(std::move(b));
    }
    ASSERT_TRUE(std::signbit(neg.util(1, per_circ)));

    for (bool balancer : {false, true}) {
        core::H2PConfig cfg = core::configFromIni(ini);
        cfg.balancer.enabled = balancer;
        for (sched::Policy policy : {sched::Policy::TegOriginal,
                                     sched::Policy::TegLoadBalance}) {
            SCOPED_TRACE(::testing::Message()
                         << sched::toString(policy) << " balancer "
                         << balancer);
            core::H2PSystem sys(cfg);
            auto a = sys.startSession(neg, policy);
            auto b = sys.startSession(pos, policy);
            while (!a.done()) {
                a.step();
                b.step();
                const auto &da = a.lastDecision().settings;
                const auto &db = b.lastDecision().settings;
                ASSERT_EQ(da.size(), db.size());
                for (size_t c = 0; c < da.size(); ++c) {
                    ASSERT_TRUE(sameBits(da[c].t_in_c, db[c].t_in_c));
                    ASSERT_TRUE(sameBits(da[c].flow_lph, db[c].flow_lph));
                }
            }
            auto ra = a.finish();
            auto rb = b.finish();
            EXPECT_GT(ra.summary.throttle_events, 0u);
            EXPECT_EQ(test::firstDifferingField(ra.summary, rb.summary), "");
            expectSameChannels(*ra.recorder, *rb.recorder);
        }
    }
}

// ------------------------------------------------- rejection paths

TEST(SessionTest, CheckpointRejectsCorruption)
{
    TempPath ck("session_test_corrupt.ckpt");
    auto trace = makeTrace();
    core::H2PSystem sys(smallConfig());

    auto session =
        sys.startSession(trace, sched::Policy::TegOriginal);
    for (size_t i = 0; i < 4; ++i)
        session.step();
    session.saveCheckpoint(ck.path);

    std::string bytes;
    {
        std::ifstream is(ck.path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 64u);

    auto rewrite = [&](const std::string &b) {
        std::ofstream os(ck.path, std::ios::binary);
        os.write(b.data(), static_cast<std::streamsize>(b.size()));
    };

    // Bad magic.
    std::string bad = bytes;
    bad[0] = 'X';
    rewrite(bad);
    EXPECT_THROW(sys.resumeSession(ck.path, trace), Error);

    // Unsupported version (u32 after the 8-byte magic).
    bad = bytes;
    bad[8] = 99;
    rewrite(bad);
    EXPECT_THROW(sys.resumeSession(ck.path, trace), Error);

    // Flipped payload byte: checksum mismatch.
    bad = bytes;
    bad[40] = static_cast<char>(bad[40] ^ 0x5a);
    rewrite(bad);
    EXPECT_THROW(sys.resumeSession(ck.path, trace), Error);

    // Truncation.
    rewrite(bytes.substr(0, bytes.size() - 9));
    EXPECT_THROW(sys.resumeSession(ck.path, trace), Error);

    // A well-checksummed file that repeats a channel name: rename
    // cpu_w_per_server to teg_w_per_server in the payload and fix the
    // footer. Every name is still one this configuration records, but
    // not the one at that position; accepting it would double one
    // channel's samples and leave the other empty.
    bad = bytes;
    const size_t at = bad.find(sim::channels::kCpuWPerServer);
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, std::strlen(sim::channels::kTegWPerServer),
                sim::channels::kTegWPerServer);
    const size_t payload_end = bad.size() - 8;
    uint64_t sum = fnv1a(bad.substr(20, payload_end - 20));
    for (size_t i = 0; i < 8; ++i)
        bad[payload_end + i] = static_cast<char>(sum >> (8 * i));
    rewrite(bad);
    EXPECT_THROW(sys.resumeSession(ck.path, trace), Error);

    // The pristine file still restores.
    rewrite(bytes);
    EXPECT_NO_THROW(sys.resumeSession(ck.path, trace));
}

TEST(SessionTest, CheckpointTruncationFuzzAlwaysFailsCleanly)
{
    // A crash (or a torn copy) can truncate a checkpoint at any byte.
    // Every truncation point must surface as a clean h2p::Error from
    // resumeSession — never a crash, hang or silent partial restore.
    TempPath ck("session_test_truncfuzz.ckpt");
    auto trace = makeTrace();
    core::H2PSystem sys(faultedConfig());

    auto session = sys.startSession(trace, sched::Policy::TegOriginal);
    for (size_t i = 0; i < 6; ++i)
        session.step();
    session.saveCheckpoint(ck.path);

    std::string bytes;
    {
        std::ifstream is(ck.path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 128u);

    // Sample cut points densely through the header and sparsely
    // through the payload, plus the exact section boundaries.
    std::vector<size_t> cuts;
    for (size_t i = 0; i < 32 && i < bytes.size(); ++i)
        cuts.push_back(i);
    for (size_t i = 32; i < bytes.size(); i += bytes.size() / 61 + 1)
        cuts.push_back(i);
    cuts.push_back(bytes.size() - 1);
    cuts.push_back(bytes.size() - 8); // into the checksum footer

    for (size_t cut : cuts) {
        {
            std::ofstream os(ck.path, std::ios::binary);
            os.write(bytes.data(), static_cast<std::streamsize>(cut));
        }
        EXPECT_THROW(sys.resumeSession(ck.path, trace), Error)
            << "truncation at byte " << cut << " of " << bytes.size()
            << " was accepted";
    }

    // Whole file restored: still resumable after all that abuse.
    {
        std::ofstream os(ck.path, std::ios::binary);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_NO_THROW(sys.resumeSession(ck.path, trace));
}

TEST(SessionTest, CheckpointSaveToBadDirectoryThrowsAndLeavesNoTrash)
{
    auto trace = makeTrace();
    core::H2PSystem sys(smallConfig());
    auto session = sys.startSession(trace, sched::Policy::TegOriginal);
    session.step();

    const std::string bad =
        "no_such_dir_session_test/sub/file.ckpt";
    try {
        session.saveCheckpoint(bad);
        FAIL() << "checkpoint into a missing directory was accepted";
    } catch (const Error &e) {
        // The error names the destination so the operator can act.
        EXPECT_NE(std::string(e.what()).find("no_such_dir_session_test"),
                  std::string::npos)
            << e.what();
    }
    // Atomic write: no final file and no temp sibling left behind.
    std::ifstream is(bad);
    EXPECT_FALSE(is.good());
}

TEST(SessionTest, CheckpointRejectsMismatchedConfig)
{
    TempPath ck("session_test_mismatch.ckpt");
    auto trace = makeTrace();

    core::H2PSystem sys(smallConfig());
    auto session =
        sys.startSession(trace, sched::Policy::TegOriginal);
    session.step();
    session.saveCheckpoint(ck.path);

    // A different control setpoint changes results: refuse.
    core::H2PConfig other = smallConfig();
    other.optimizer.t_safe_c = 60.0;
    core::H2PSystem sys_other(other);
    EXPECT_THROW(sys_other.resumeSession(ck.path, trace), Error);

    // A different fault scenario: refuse.
    core::H2PSystem sys_faulted(faultedConfig());
    EXPECT_THROW(sys_faulted.resumeSession(ck.path, trace), Error);

    // A different TEG, thermal or plant model: refuse, naming the
    // configuration.
    auto refusal = [&](core::H2PConfig changed) {
        core::H2PSystem sys_changed(changed);
        try {
            sys_changed.resumeSession(ck.path, trace);
        } catch (const Error &e) {
            return std::string(e.what());
        }
        return std::string("resumed");
    };
    core::H2PConfig teg = smallConfig();
    teg.datacenter.server.teg.voc_slope = 0.06;
    EXPECT_NE(refusal(teg).find("different configuration"),
              std::string::npos);
    core::H2PConfig leak = smallConfig();
    leak.datacenter.server.thermal.leak_gamma = 0.5;
    EXPECT_NE(refusal(leak).find("different configuration"),
              std::string::npos);
    core::H2PConfig plant = smallConfig();
    plant.datacenter.plant.chiller.cop = 3.0;
    EXPECT_NE(refusal(plant).find("different configuration"),
              std::string::npos);

    // The same configuration on a fresh system is fine, and so is one
    // that differs only in [obs] (obs never changes results).
    core::H2PSystem sys_same(smallConfig());
    EXPECT_NO_THROW(sys_same.resumeSession(ck.path, trace));
    core::H2PConfig observed = smallConfig();
    observed.obs.max_events = 16;
    observed.obs.enabled = true;
    core::H2PSystem sys_observed(observed);
    EXPECT_NO_THROW(sys_observed.resumeSession(ck.path, trace));
}

TEST(SessionTest, CheckpointRejectsADifferentPump)
{
    // The pump model sets the loops' power draw but has no say in any
    // cooling decision; a resume under another pump must still refuse
    // instead of splicing two models into one run.
    TempPath ck("session_test_pump.ckpt");
    auto trace = makeTrace();
    core::H2PSystem sys(smallConfig());
    auto session = sys.startSession(trace, sched::Policy::TegLoadBalance);
    session.step();
    session.saveCheckpoint(ck.path);

    core::H2PConfig pump = smallConfig();
    pump.datacenter.pump.rated_power_w = 20.0;
    core::H2PSystem sys_pump(pump);
    try {
        sys_pump.resumeSession(ck.path, trace);
        ADD_FAILURE() << "resumed under a different pump";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("different configuration"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SessionTest, CheckpointRejectsMismatchedTrace)
{
    TempPath ck("session_test_trace.ckpt");
    auto trace = makeTrace(11);
    core::H2PSystem sys(smallConfig());

    auto session =
        sys.startSession(trace, sched::Policy::TegOriginal);
    session.step();
    session.saveCheckpoint(ck.path);

    auto other_trace = makeTrace(12);
    EXPECT_THROW(sys.resumeSession(ck.path, other_trace), Error);
}

// --------------------------------------------- lifecycle and guards

TEST(SessionTest, LifecycleMisuseThrows)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto session =
        sys.startSession(trace, sched::Policy::TegOriginal);

    EXPECT_THROW(session.finish(), Error);   // not done yet
    EXPECT_THROW(session.lastState(), Error); // nothing evaluated

    session.runToCompletion();
    EXPECT_THROW(session.step(), Error); // past the end

    auto r = session.finish();
    EXPECT_GT(r.summary.avg_teg_w, 0.0);
    EXPECT_THROW(session.finish(), Error); // single-use
    EXPECT_THROW(session.saveCheckpoint("nope.ckpt"), Error);
}

TEST(SessionTest, EvaluateStepRefusesFaultObliviousUse)
{
    std::vector<double> utils(40, 0.5);

    // Fault scenario enabled: the single-step path would silently
    // ignore it — must refuse.
    core::H2PSystem faulted(faultedConfig());
    EXPECT_THROW(
        faulted.evaluateStep(utils, sched::Policy::TegOriginal),
        Error);

    // Safe-mode control alone must also refuse.
    core::H2PConfig sm_only = smallConfig();
    sm_only.safe_mode.enabled = true;
    core::H2PSystem sm_sys(sm_only);
    EXPECT_THROW(
        sm_sys.evaluateStep(utils, sched::Policy::TegOriginal),
        Error);

    // The clean configuration still evaluates.
    core::H2PSystem clean(smallConfig());
    auto state =
        clean.evaluateStep(utils, sched::Policy::TegOriginal);
    EXPECT_GT(state.teg_power_w, 0.0);
}

void
expectSameVector(const std::vector<double> &a, const std::vector<double> &b,
                 const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameBits(a[i], b[i])) << what << "[" << i << "]";
}

void
expectSameState(const cluster::DatacenterState &a,
                const cluster::DatacenterState &b)
{
    EXPECT_TRUE(sameBits(a.cpu_power_w, b.cpu_power_w));
    EXPECT_TRUE(sameBits(a.teg_power_w, b.teg_power_w));
    EXPECT_TRUE(sameBits(a.heat_w, b.heat_w));
    EXPECT_TRUE(sameBits(a.pump_power_w, b.pump_power_w));
    EXPECT_TRUE(sameBits(a.plant_power_w, b.plant_power_w));
    EXPECT_EQ(a.faulted_servers, b.faulted_servers);
    EXPECT_TRUE(sameBits(a.teg_power_lost_w, b.teg_power_lost_w));
    EXPECT_EQ(a.plant_degraded, b.plant_degraded);
    EXPECT_EQ(a.all_safe, b.all_safe);
    ASSERT_EQ(a.circulations.size(), b.circulations.size());
    for (size_t c = 0; c < a.circulations.size(); ++c) {
        SCOPED_TRACE(c);
        const cluster::CirculationState &x = a.circulations[c];
        const cluster::CirculationState &y = b.circulations[c];
        EXPECT_TRUE(sameBits(x.setting.t_in_c, y.setting.t_in_c));
        EXPECT_TRUE(sameBits(x.setting.flow_lph, y.setting.flow_lph));
        EXPECT_TRUE(sameBits(x.cpu_power_w, y.cpu_power_w));
        EXPECT_TRUE(sameBits(x.teg_power_w, y.teg_power_w));
        EXPECT_TRUE(sameBits(x.heat_w, y.heat_w));
        EXPECT_TRUE(sameBits(x.return_c, y.return_c));
        EXPECT_TRUE(sameBits(x.pump_power_w, y.pump_power_w));
        EXPECT_TRUE(sameBits(x.max_die_c, y.max_die_c));
        EXPECT_TRUE(
            sameBits(x.delivered_flow_lph, y.delivered_flow_lph));
        EXPECT_EQ(x.faulted_servers, y.faulted_servers);
        EXPECT_TRUE(sameBits(x.teg_power_lost_w, y.teg_power_lost_w));
        EXPECT_EQ(x.all_safe, y.all_safe);
        EXPECT_EQ(x.offset, y.offset);
        EXPECT_EQ(x.count, y.count);
    }
    expectSameVector(a.servers.util, b.servers.util, "util");
    expectSameVector(a.servers.die_temp_c, b.servers.die_temp_c,
                     "die_temp_c");
    expectSameVector(a.servers.teg_power_w, b.servers.teg_power_w,
                     "teg_power_w");
    expectSameVector(a.servers.outlet_c, b.servers.outlet_c, "outlet_c");
}

TEST(SessionTest, EvaluateStepMatchesFirstSessionStep)
{
    // evaluateStep() runs the policy's pipeline and the datacenter's
    // evaluation exactly as step 0 of a fresh session does.
    auto trace = makeTrace();
    std::vector<double> utils0;
    trace.stepInto(0, utils0);
    utils0.resize(40);
    for (bool balancer : {false, true}) {
        for (sched::Policy policy : {sched::Policy::TegOriginal,
                                     sched::Policy::TegLoadBalance}) {
            SCOPED_TRACE(toString(policy) +
                         (balancer ? " balancer" : ""));
            core::H2PConfig cfg = smallConfig();
            cfg.balancer.enabled = balancer;
            core::H2PSystem sys(cfg);
            cluster::DatacenterState single =
                sys.evaluateStep(utils0, policy);
            auto session = sys.startSession(trace, policy);
            session.step();
            expectSameState(single, session.lastState());
        }
    }
}

// ------------------------------------------------ controller seam

TEST(SessionTest, ControllerOverrideDrivesTheDecision)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    const size_t num_circ = sys.datacenter().numCirculations();
    cluster::CoolingSetting fixed{45.0, 80.0};
    size_t calls = 0;
    auto session = sys.startSession(
        trace, sched::Policy::TegOriginal,
        test::fnPipeline([&](const control::ControlContext &,
                             sched::ScheduleDecision &d) {
            ++calls;
            d.settings.assign(num_circ, fixed);
        }));

    session.runToCompletion();
    EXPECT_EQ(calls, trace.numSteps());
    EXPECT_TRUE(
        sameBits(session.lastDecision().settings[0].t_in_c, 45.0));
    auto r = session.finish();
    // Every interval ran at the fixed inlet temperature.
    EXPECT_TRUE(sameBits(r.summary.avg_t_in_c, 45.0));
}

TEST(SessionTest, ControllerShapeIsValidated)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto session = sys.startSession(
        trace, sched::Policy::TegOriginal,
        test::fnPipeline([](const control::ControlContext &,
                            sched::ScheduleDecision &d) {
            d.settings.clear(); // wrong: one setting per circulation
        }));
    EXPECT_THROW(session.step(), Error);
}

TEST(SessionTest, CustomControlResumeRefusesToStepUntilReattach)
{
    // A checkpoint under custom control used to restore onto the
    // built-in policy pipeline silently — the resumed run diverged
    // from the original with no error. The checkpoint flags custom
    // control: resuming it without a pipeline is refused at resume
    // time, and resuming it with the same control continues
    // bit-identically, stateful stages included.
    core::H2PConfig cfg = smallConfig();
    cfg.balancer.enabled = true;
    core::H2PSystem sys(cfg);
    auto trace = makeTrace();
    const size_t num_circ = sys.datacenter().numCirculations();

    // A stateless stage whose decision depends only on the step
    // index, and a stateful one: the balancer's latches and feedback
    // view ride in the checkpoint and go back into the new pipeline.
    auto stateless = [num_circ]() {
        return test::fnPipeline([num_circ](
                                    const control::ControlContext &ctx,
                                    sched::ScheduleDecision &d) {
            double t_in = 40.0 + static_cast<double>(ctx.step % 7);
            d.settings.assign(num_circ,
                              cluster::CoolingSetting{t_in, 90.0});
        });
    };
    auto stateful = [&sys]() {
        auto p = std::make_unique<control::ControlPipeline>("custom");
        p->add(std::make_unique<control::ThermalBalancer>(
            sys.config().balancer, sys.datacenter(),
            sys.config().optimizer.t_safe_c));
        p->add(std::make_unique<control::CoolingStage>(
            sys.datacenter(), sys.optimizer()));
        return p;
    };
    using Make = std::function<std::unique_ptr<control::ControlPipeline>()>;
    for (const Make &custom : {Make(stateless), Make(stateful)}) {
        TempPath ck("session_test_custom.ckpt");
        auto full =
            sys.startSession(trace, sched::Policy::TegOriginal, custom());
        full.runToCompletion();
        auto full_result = full.finish();

        auto first =
            sys.startSession(trace, sched::Policy::TegOriginal, custom());
        for (size_t i = 0; i < trace.numSteps() / 2; ++i)
            first.step();
        first.saveCheckpoint(ck.path);

        core::H2PSystem sys2(cfg);
        try {
            sys2.resumeSession(ck.path, trace);
            FAIL() << "resuming custom control without it must throw";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("custom control"),
                      std::string::npos)
                << e.what();
        }

        auto resumed = sys.resumeSession(ck.path, trace, custom());
        ASSERT_NE(resumed.pipeline(), nullptr);
        resumed.runToCompletion();
        auto rest = resumed.finish();
        EXPECT_EQ(test::firstDifferingField(full_result.summary,
                                            rest.summary),
                  "");
        expectSameChannels(*full_result.recorder, *rest.recorder);
    }
}

TEST(SessionTest, ResumeRefusesAPipelineWithoutTheCheckpointedStage)
{
    // A built-in [balancer] checkpoint carries the thermal balancer's
    // state. Resumed under a pipeline without that stage, the state
    // would be dropped and the run would change silently.
    TempPath ck("session_test_drop_balancer.ckpt");
    core::H2PConfig cfg = smallConfig();
    cfg.balancer.enabled = true;
    core::H2PSystem sys(cfg);
    auto trace = makeTrace();
    auto first = sys.startSession(trace, sched::Policy::TegLoadBalance);
    ASSERT_NE(first.pipeline()->find(control::ThermalBalancer::kName),
              nullptr);
    for (size_t i = 0; i < trace.numSteps() / 2; ++i)
        first.step();
    first.saveCheckpoint(ck.path);

    auto plain = std::make_unique<control::ControlPipeline>("plain");
    plain->add(std::make_unique<control::CoolingStage>(sys.datacenter(),
                                                       sys.optimizer()));
    EXPECT_THROW(sys.resumeSession(ck.path, trace, std::move(plain)),
                 Error);
    // The built-in pipeline still takes it.
    auto resumed = sys.resumeSession(ck.path, trace);
    EXPECT_EQ(resumed.cursor(), trace.numSteps() / 2);
}

// ------------------------------------------- recorder channel handles

TEST(SessionTest, RecorderSeriesByHandleMatchesByName)
{
    sim::Recorder rec(300.0);
    sim::Recorder::Channel ch =
        rec.channel(sim::channels::kTegWPerServer);
    rec.record(ch, 1.5);
    rec.record(ch, 2.5);
    EXPECT_EQ(&rec.series(ch),
              &rec.series(sim::channels::kTegWPerServer));
    EXPECT_EQ(rec.series(ch).size(), 2u);

    sim::Recorder::Channel unresolved;
    EXPECT_THROW(rec.series(unresolved), Error);
}

} // namespace
} // namespace h2p
