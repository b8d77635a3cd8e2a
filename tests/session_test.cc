/**
 * @file
 * SimEngine session tests: per-sample equivalence of the incremental
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
#include <memory>
#include <string>
#include <vector>

#include "control/stages.h"
#include "control/thermal_balancer.h"
#include "core/h2p_system.h"
#include "fault/fault_injector.h"
#include "sim/channels.h"
#include "tests/support/fn_stage.h"
#include "util/error.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace {

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

void
expectSameSummary(const core::RunSummary &a, const core::RunSummary &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_TRUE(sameBits(a.avg_teg_w, b.avg_teg_w));
    EXPECT_TRUE(sameBits(a.peak_teg_w, b.peak_teg_w));
    EXPECT_TRUE(sameBits(a.avg_cpu_w, b.avg_cpu_w));
    EXPECT_TRUE(sameBits(a.pre, b.pre));
    EXPECT_TRUE(sameBits(a.teg_energy_kwh, b.teg_energy_kwh));
    EXPECT_TRUE(sameBits(a.cpu_energy_kwh, b.cpu_energy_kwh));
    EXPECT_TRUE(sameBits(a.plant_energy_kwh, b.plant_energy_kwh));
    EXPECT_TRUE(sameBits(a.pump_energy_kwh, b.pump_energy_kwh));
    EXPECT_TRUE(sameBits(a.safe_fraction, b.safe_fraction));
    EXPECT_TRUE(sameBits(a.avg_t_in_c, b.avg_t_in_c));
    EXPECT_EQ(a.fault_events, b.fault_events);
    EXPECT_EQ(a.throttle_events, b.throttle_events);
    EXPECT_TRUE(sameBits(a.throttled_work_server_hours,
                         b.throttled_work_server_hours));
    EXPECT_TRUE(sameBits(a.teg_energy_lost_kwh, b.teg_energy_lost_kwh));
    EXPECT_EQ(a.safe_mode_steps, b.safe_mode_steps);
    EXPECT_EQ(a.max_faulted_servers, b.max_faulted_servers);
    ASSERT_EQ(a.circulation_safe_fraction.size(),
              b.circulation_safe_fraction.size());
    for (size_t i = 0; i < a.circulation_safe_fraction.size(); ++i)
        EXPECT_TRUE(sameBits(a.circulation_safe_fraction[i],
                             b.circulation_safe_fraction[i]));
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

    expectSameSummary(batch.summary, stepped.summary);
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

    expectSameSummary(batch.summary, stepped.summary);
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

    expectSameSummary(full.summary, rest.summary);
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

    expectSameSummary(full.summary, rest.summary);
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

    expectSameSummary(full.summary, rest.summary);
    expectSameChannels(*full.recorder, *rest.recorder);
}

// ------------------------------------------------ v2 layout guard

/**
 * A test-local decoder of the v2 checkpoint file, written from the
 * layout the engine documents (magic | version | payload length |
 * payload | FNV-1a footer, then the payload field by field) and
 * deliberately independent of the engine's own serializer: if save
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
 * Walk a whole v2 checkpoint of @p session field by field: framing,
 * header, control-plane section, accumulators, recorded channels and
 * (for resilient runs) the fault/watchdog/safe-mode block. Asserts
 * that every byte is consumed and that the cursor, channel names and
 * sample bits equal the live session's. Returns the number of held
 * die-sensor latches so callers can assert the latch state is live.
 */
size_t
walkCheckpointV2(const std::string &bytes, core::SimSession &session,
                 const core::H2PSystem &sys,
                 const workload::UtilizationTrace &trace)
{
    size_t held_die_latches = 0;
    const size_t num_circ = sys.datacenter().numCirculations();
    const size_t servers = sys.datacenter().numServers();

    // Framing: "H2PCKPT1" | u32 version | u64 length | payload | u64.
    EXPECT_EQ(bytes.substr(0, 8), "H2PCKPT1");
    LayoutWalk head(bytes, 8, bytes.size());
    EXPECT_EQ(head.u32(), 2u);
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

    // Summary accumulators: six f64 sums, three u64 counters, then
    // one safe-step counter per circulation.
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(std::isfinite(w.f64()));
    EXPECT_LE(w.u64(), cursor); // safe steps
    w.u64();                    // safe-mode circulation-steps
    EXPECT_LE(w.u64(), servers); // max faulted servers
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
        // Safety monitor: one record per circulation.
        for (size_t c = 0; c < num_circ; ++c) {
            w.f64();
            EXPECT_LE(w.u8(), 1u);
            w.u64();
            EXPECT_LE(w.u32(), 2u);
            EXPECT_LE(w.u32(), 2u);
        }
        // Previous-interval readings and commanded flows.
        for (size_t c = 0; c < num_circ; ++c) {
            w.f64();
            EXPECT_LE(w.u8(), 1u);
            w.f64();
            EXPECT_LE(w.u8(), 1u);
            w.f64();
        }
        EXPECT_EQ(w.u8(), cursor > 0 ? 1u : 0u); // have_readings
        for (size_t c = 0; c < num_circ; ++c)
            EXPECT_LE(w.u32(), 2u);
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

TEST(SessionTest, CheckpointV2LayoutIsPinnedFieldByField)
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
        size_t held = walkCheckpointV2(bytes, session, sys, trace);
        // The scripted die-sensor stuck window (600 s onward) is
        // latched by step 4 of the faulted run.
        if (std::string(c.what) == "faulted") {
            EXPECT_GE(held, 1u);
        }

        // The file the engine reads back re-saves to the same bytes.
        auto resumed = sys.resumeSession(ck.path, trace);
        resumed.saveCheckpoint(ck.path);
        EXPECT_EQ(readFile(ck.path), bytes);
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

    // The same configuration on a fresh system is fine.
    core::H2PSystem sys_same(smallConfig());
    EXPECT_NO_THROW(sys_same.resumeSession(ck.path, trace));
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
    auto session =
        sys.startSession(trace, sched::Policy::TegOriginal);

    const size_t num_circ = sys.datacenter().numCirculations();
    cluster::CoolingSetting fixed{45.0, 80.0};
    size_t calls = 0;
    session.setPipeline(test::fnPipeline(
        [&](const control::ControlContext &, sched::ScheduleDecision &d) {
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
    auto session =
        sys.startSession(trace, sched::Policy::TegOriginal);
    session.setPipeline(test::fnPipeline(
        [](const control::ControlContext &, sched::ScheduleDecision &d) {
            d.settings.clear(); // wrong: one setting per circulation
        }));
    EXPECT_THROW(session.step(), Error);
}

TEST(SessionTest, CustomControlResumeRefusesToStepUntilReattach)
{
    // A checkpoint under a custom controller used to restore onto the
    // built-in policy pipeline silently — the resumed run diverged
    // from the original with no error. The checkpoint now flags
    // custom control and the resumed session refuses to step until
    // the caller re-attaches; after the re-attach it continues
    // bit-identically.
    TempPath ck("session_test_custom.ckpt");
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    const size_t num_circ = sys.datacenter().numCirculations();

    // The custom decision depends only on the step index, so the
    // same stage re-attached after resume replays identically.
    auto controller = [num_circ](const control::ControlContext &ctx,
                                 sched::ScheduleDecision &d) {
        double t_in = 40.0 + static_cast<double>(ctx.step % 7);
        d.settings.assign(num_circ, cluster::CoolingSetting{t_in, 90.0});
    };

    auto full = sys.startSession(trace, sched::Policy::TegOriginal);
    full.setPipeline(test::fnPipeline(controller));
    full.runToCompletion();
    auto full_result = full.finish();

    auto first = sys.startSession(trace, sched::Policy::TegOriginal);
    first.setPipeline(test::fnPipeline(controller));
    for (size_t i = 0; i < trace.numSteps() / 2; ++i)
        first.step();
    first.saveCheckpoint(ck.path);

    core::H2PSystem sys2(smallConfig());
    auto resumed = sys2.resumeSession(ck.path, trace);
    EXPECT_EQ(resumed.pipeline(), nullptr);
    try {
        resumed.step();
        FAIL() << "stepping a custom-control resume must throw";
    } catch (const RunError &e) {
        EXPECT_EQ(e.failure().kind, FailureKind::ConfigError);
        EXPECT_EQ(e.failure().stage, "decide");
    }

    resumed.setPipeline(test::fnPipeline(controller));
    ASSERT_NE(resumed.pipeline(), nullptr);
    resumed.runToCompletion();
    auto rest = resumed.finish();
    expectSameSummary(full_result.summary, rest.summary);
    expectSameChannels(*full_result.recorder, *rest.recorder);
}

TEST(SessionTest, ControllerNullRestoresBuiltinPipeline)
{
    // setPipeline(nullptr) reinstates the policy's factory
    // pipeline: a session overridden and then cleared before any
    // step must match a never-overridden run bit for bit.
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto plain = sys.run(trace, sched::Policy::TegLoadBalance);

    auto session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    const size_t num_circ = sys.datacenter().numCirculations();
    session.setPipeline(test::fnPipeline(
        [num_circ](const control::ControlContext &,
                   sched::ScheduleDecision &d) {
            d.settings.assign(num_circ,
                              cluster::CoolingSetting{45.0, 80.0});
        }));
    session.setPipeline(nullptr);
    ASSERT_NE(session.pipeline(), nullptr);
    EXPECT_EQ(session.pipeline()->name(), "TEG_LoadBalance");
    session.runToCompletion();
    auto cleared = session.finish();
    expectSameSummary(plain.summary, cleared.summary);
    expectSameChannels(*plain.recorder, *cleared.recorder);
}

TEST(SessionTest, RestoringBuiltinPipelineRefusesPendingStageState)
{
    // A custom pipeline with a stateful stage checkpoints that stage's
    // state. After resume the state waits for the matching pipeline;
    // restoring the built-in pipeline instead would drop it, so
    // setPipeline(nullptr) refuses until the re-attach.
    TempPath ck("session_test_pending.ckpt");
    core::H2PConfig cfg = smallConfig();
    cfg.balancer.enabled = true;
    core::H2PSystem sys(cfg);
    auto trace = makeTrace();
    auto custom = [&sys]() {
        auto p = std::make_unique<control::ControlPipeline>("custom");
        p->add(std::make_unique<control::ThermalBalancer>(
            sys.config().balancer, sys.datacenter(),
            sys.config().optimizer.t_safe_c));
        p->add(std::make_unique<control::CoolingStage>(
            sys.datacenter(), sys.optimizer()));
        return p;
    };

    auto full = sys.startSession(trace, sched::Policy::TegOriginal);
    full.setPipeline(custom());
    full.runToCompletion();
    auto full_result = full.finish();

    auto first = sys.startSession(trace, sched::Policy::TegOriginal);
    first.setPipeline(custom());
    for (size_t i = 0; i < trace.numSteps() / 2; ++i)
        first.step();
    first.saveCheckpoint(ck.path);

    auto resumed = sys.resumeSession(ck.path, trace);
    EXPECT_EQ(resumed.pipeline(), nullptr);
    EXPECT_THROW(resumed.setPipeline(nullptr), Error);
    EXPECT_EQ(resumed.pipeline(), nullptr);

    resumed.setPipeline(custom());
    resumed.runToCompletion();
    auto rest = resumed.finish();
    expectSameSummary(full_result.summary, rest.summary);
    expectSameChannels(*full_result.recorder, *rest.recorder);
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
