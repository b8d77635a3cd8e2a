/**
 * @file
 * Hot-path performance machinery tests: the deterministic thread
 * pool, the parallel-vs-serial bit-identity contract of
 * Datacenter::evaluate, the cooling-optimizer decision cache, and the
 * allocation-free *Into twins of the per-step APIs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

#include "cluster/datacenter.h"
#include "core/h2p_system.h"
#include "sched/cooling_optimizer.h"
#include "sim/recorder.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolTest, ChunksCoverRangeExactly)
{
    for (size_t n : {0u, 1u, 3u, 7u, 16u, 17u, 1000u}) {
        for (size_t parts : {1u, 2u, 3u, 5u, 8u, 17u}) {
            size_t covered = 0;
            size_t prev_end = 0;
            for (size_t p = 0; p < parts; ++p) {
                size_t b, e;
                util::ThreadPool::chunkRange(n, parts, p, b, e);
                EXPECT_EQ(b, prev_end);
                EXPECT_LE(e - b, n / parts + 1);
                covered += e - b;
                prev_end = e;
            }
            EXPECT_EQ(covered, n);
            EXPECT_EQ(prev_end, n);
        }
    }
}

TEST(ThreadPoolTest, VisitsEveryIndexOnceOddWorkerCounts)
{
    for (size_t workers : {1u, 2u, 3u, 5u, 9u}) {
        util::ThreadPool pool(workers);
        EXPECT_EQ(pool.workers(), workers);
        std::vector<std::atomic<int>> hits(17);
        for (auto &h : hits)
            h = 0;
        pool.parallelFor(hits.size(),
                         [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPoolTest, EmptyRangeCallsNothing)
{
    util::ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(0, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, MoreWorkersThanItems)
{
    util::ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(16,
                                  [](size_t i) {
                                      if (i == 11)
                                          fatal("worker exploded");
                                  }),
                 Error);
    // The pool must stay usable after a failed job.
    std::atomic<int> calls{0};
    pool.parallelFor(8, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs)
{
    util::ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<size_t> sum{0};
        pool.parallelFor(100, [&](size_t i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

// --------------------------------------------- parallel/serial identity

core::H2PConfig
identityConfig(size_t threads, bool faulted)
{
    core::H2PConfig cfg;
    // 96 servers in circulations of 20 -> 5 loops including a smaller
    // tail loop of 16, so the tail-circulation model is exercised.
    cfg.datacenter.num_servers = 96;
    cfg.datacenter.servers_per_circulation = 20;
    cfg.perf.threads = threads;
    // Disable the oversubscription guard: these tests compare the
    // parallel path against serial, so the pool must actually engage
    // even though 96 servers would not normally warrant it.
    cfg.perf.min_servers_per_thread = 1;
    if (faulted) {
        cfg.faults.seed = 31;
        cfg.faults.pump_degrade_per_circ_year = 3000.0;
        cfg.faults.teg_open_per_server_year = 40.0;
        cfg.faults.chiller_outages_per_year = 60.0;
        cfg.faults.die_sensor_faults_per_circ_year = 3000.0;
        cfg.safe_mode.enabled = true;
        cfg.safe_mode.watchdog_enabled = true;
    }
    return cfg;
}

void
expectIdenticalRuns(const core::RunResult &a, const core::RunResult &b)
{
    const core::RunSummary &sa = a.summary, &sb = b.summary;
    EXPECT_EQ(sa.policy, sb.policy);
    EXPECT_DOUBLE_EQ(sa.avg_teg_w, sb.avg_teg_w);
    EXPECT_DOUBLE_EQ(sa.peak_teg_w, sb.peak_teg_w);
    EXPECT_DOUBLE_EQ(sa.avg_cpu_w, sb.avg_cpu_w);
    EXPECT_DOUBLE_EQ(sa.pre, sb.pre);
    EXPECT_DOUBLE_EQ(sa.teg_energy_kwh, sb.teg_energy_kwh);
    EXPECT_DOUBLE_EQ(sa.cpu_energy_kwh, sb.cpu_energy_kwh);
    EXPECT_DOUBLE_EQ(sa.plant_energy_kwh, sb.plant_energy_kwh);
    EXPECT_DOUBLE_EQ(sa.pump_energy_kwh, sb.pump_energy_kwh);
    EXPECT_DOUBLE_EQ(sa.safe_fraction, sb.safe_fraction);
    EXPECT_DOUBLE_EQ(sa.avg_t_in_c, sb.avg_t_in_c);
    EXPECT_EQ(sa.fault_events, sb.fault_events);
    EXPECT_EQ(sa.throttle_events, sb.throttle_events);
    EXPECT_DOUBLE_EQ(sa.throttled_work_server_hours,
                     sb.throttled_work_server_hours);
    EXPECT_DOUBLE_EQ(sa.teg_energy_lost_kwh, sb.teg_energy_lost_kwh);
    EXPECT_EQ(sa.safe_mode_steps, sb.safe_mode_steps);
    EXPECT_EQ(sa.max_faulted_servers, sb.max_faulted_servers);
    ASSERT_EQ(sa.circulation_safe_fraction.size(),
              sb.circulation_safe_fraction.size());
    for (size_t i = 0; i < sa.circulation_safe_fraction.size(); ++i)
        EXPECT_DOUBLE_EQ(sa.circulation_safe_fraction[i],
                         sb.circulation_safe_fraction[i]);

    auto channels = a.recorder->channels();
    ASSERT_EQ(channels, b.recorder->channels());
    for (const std::string &name : channels) {
        const auto &ta = a.recorder->series(name);
        const auto &tb = b.recorder->series(name);
        ASSERT_EQ(ta.size(), tb.size()) << name;
        for (size_t i = 0; i < ta.size(); ++i)
            ASSERT_DOUBLE_EQ(ta.at(i), tb.at(i))
                << name << " step " << i;
    }
}

class ParallelIdentityTest
    : public ::testing::TestWithParam<std::tuple<bool, sched::Policy>>
{
};

TEST_P(ParallelIdentityTest, ThreadedRunsMatchSerialBitForBit)
{
    auto [faulted, policy] = GetParam();
    workload::TraceGenerator gen(77);
    auto trace = gen.generate(
        workload::TraceGenParams::forProfile(
            workload::TraceProfile::Drastic),
        96, 2.0 * 3600.0);

    core::H2PSystem serial(identityConfig(1, faulted));
    core::RunResult base = serial.run(trace, policy);

    for (size_t threads : {2u, 8u}) {
        core::H2PSystem threaded(identityConfig(threads, faulted));
        core::RunResult run = threaded.run(trace, policy);
        expectIdenticalRuns(base, run);
    }
}

INSTANTIATE_TEST_SUITE_P(
    CleanAndFaulted, ParallelIdentityTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(sched::Policy::TegOriginal,
                                         sched::Policy::TegLoadBalance)));

TEST(ParallelIdentityTest, DatacenterEvaluateMatchesAcrossPools)
{
    cluster::DatacenterParams dp;
    dp.num_servers = 110; // tail circulation of 10
    dp.servers_per_circulation = 25;
    cluster::Datacenter serial(dp);
    cluster::Datacenter threaded(dp);
    util::ThreadPool pool(5);
    threaded.setThreadPool(&pool);

    std::vector<double> utils(dp.num_servers);
    for (size_t i = 0; i < utils.size(); ++i)
        utils[i] = 0.5 + 0.45 * std::sin(static_cast<double>(i) * 0.7);
    std::vector<cluster::CoolingSetting> settings(
        serial.numCirculations());
    for (size_t c = 0; c < settings.size(); ++c)
        settings[c] = {35.0 + static_cast<double>(c) * 3.0,
                       30.0 + static_cast<double>(c) * 10.0};

    cluster::DatacenterState a = serial.evaluate(utils, settings);
    cluster::DatacenterState b = threaded.evaluate(utils, settings);
    EXPECT_DOUBLE_EQ(a.cpu_power_w, b.cpu_power_w);
    EXPECT_DOUBLE_EQ(a.teg_power_w, b.teg_power_w);
    EXPECT_DOUBLE_EQ(a.heat_w, b.heat_w);
    EXPECT_DOUBLE_EQ(a.pump_power_w, b.pump_power_w);
    EXPECT_DOUBLE_EQ(a.plant_power_w, b.plant_power_w);
    ASSERT_EQ(a.circulations.size(), b.circulations.size());
    for (size_t c = 0; c < a.circulations.size(); ++c) {
        EXPECT_DOUBLE_EQ(a.circulations[c].return_c,
                         b.circulations[c].return_c);
        EXPECT_DOUBLE_EQ(a.circulations[c].max_die_c,
                         b.circulations[c].max_die_c);
    }
}

TEST(ParallelIdentityTest, EvaluateIntoReusesStateAcrossCalls)
{
    cluster::DatacenterParams dp;
    dp.num_servers = 45; // tail circulation of 5
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);

    std::vector<cluster::CoolingSetting> settings(
        dc.numCirculations(), {40.0, 50.0});
    std::vector<double> lo(dp.num_servers, 0.2);
    std::vector<double> hi(dp.num_servers, 0.9);

    cluster::DatacenterState scratch;
    dc.evaluateInto(hi, settings, nullptr, scratch); // dirty the state
    dc.evaluateInto(lo, settings, nullptr, scratch);

    cluster::DatacenterState fresh = dc.evaluate(lo, settings);
    EXPECT_DOUBLE_EQ(scratch.cpu_power_w, fresh.cpu_power_w);
    EXPECT_DOUBLE_EQ(scratch.teg_power_w, fresh.teg_power_w);
    EXPECT_DOUBLE_EQ(scratch.plant_power_w, fresh.plant_power_w);
    EXPECT_EQ(scratch.all_safe, fresh.all_safe);
    ASSERT_EQ(scratch.circulations.size(), fresh.circulations.size());
    for (size_t c = 0; c < fresh.circulations.size(); ++c)
        EXPECT_DOUBLE_EQ(scratch.circulations[c].teg_power_w,
                         fresh.circulations[c].teg_power_w);
}

// ------------------------------------------------------- optimizer cache

struct CacheFixture : ::testing::Test
{
    CacheFixture() : server(), space(server), teg(12) {}
    cluster::Server server;
    sched::LookupSpace space;
    thermal::TegModule teg;
};

TEST_F(CacheFixture, CachedEqualsUncachedAtQuantizedUtil)
{
    sched::OptimizerParams cached_p;
    cached_p.cache_util_quantum = 1e-3;
    sched::CoolingOptimizer cached(space, teg, cached_p);
    sched::CoolingOptimizer exact(space, teg); // quantum 0: no cache

    for (double u :
         {0.0, 0.1234, 0.31, 0.4999, 0.5001, 0.77, 0.9876, 1.0}) {
        sched::OptimizerResult a = cached.choose(u);
        double q = std::round(u / 1e-3) * 1e-3;
        sched::OptimizerResult b =
            exact.choose(std::min(1.0, std::max(0.0, q)));
        EXPECT_DOUBLE_EQ(a.setting.t_in_c, b.setting.t_in_c) << u;
        EXPECT_DOUBLE_EQ(a.setting.flow_lph, b.setting.flow_lph) << u;
        EXPECT_DOUBLE_EQ(a.teg_power_w, b.teg_power_w) << u;
        EXPECT_EQ(a.candidates, b.candidates) << u;
        EXPECT_EQ(a.fallback, b.fallback) << u;
    }
}

TEST_F(CacheFixture, RepeatedCallsHitTheCache)
{
    sched::OptimizerParams p;
    p.cache_util_quantum = 1e-3;
    sched::CoolingOptimizer opt(space, teg, p);
    EXPECT_EQ(opt.cacheHits(), 0u);

    sched::OptimizerResult first = opt.choose(0.42);
    EXPECT_EQ(opt.cacheHits(), 0u);
    EXPECT_EQ(opt.cacheSize(), 1u);

    for (int i = 0; i < 5; ++i) {
        sched::OptimizerResult again = opt.choose(0.42);
        EXPECT_DOUBLE_EQ(again.setting.t_in_c, first.setting.t_in_c);
        EXPECT_DOUBLE_EQ(again.teg_power_w, first.teg_power_w);
    }
    EXPECT_EQ(opt.cacheHits(), 5u);
    // A nearby util in the same bucket hits too.
    opt.choose(0.4201);
    EXPECT_EQ(opt.cacheHits(), 6u);

    opt.clearCache();
    EXPECT_EQ(opt.cacheSize(), 0u);
    opt.choose(0.42);
    EXPECT_EQ(opt.cacheHits(), 6u); // miss after clear
}

TEST_F(CacheFixture, TsafeOverrideKeyedSeparately)
{
    sched::OptimizerParams p;
    p.cache_util_quantum = 1e-3;
    sched::CoolingOptimizer opt(space, teg, p);

    sched::OptimizerResult normal = opt.choose(0.5);
    sched::OptimizerResult widened =
        opt.choose(0.5, p.t_safe_c - 5.0);
    // Different T_safe entries must not collide in the cache.
    EXPECT_LE(widened.t_cpu_c, normal.t_cpu_c + 1e-9);
    sched::OptimizerResult normal2 = opt.choose(0.5);
    sched::OptimizerResult widened2 =
        opt.choose(0.5, p.t_safe_c - 5.0);
    EXPECT_DOUBLE_EQ(normal2.setting.t_in_c, normal.setting.t_in_c);
    EXPECT_DOUBLE_EQ(widened2.setting.t_in_c, widened.setting.t_in_c);
    EXPECT_EQ(opt.cacheSize(), 2u);
    EXPECT_EQ(opt.cacheHits(), 2u);
}

TEST_F(CacheFixture, VisitorSearchMatchesSliceReference)
{
    // The streaming three-tier search must reproduce the materialized
    // slice-based reference algorithm bit for bit.
    sched::CoolingOptimizer opt(space, teg); // cache off
    const sched::OptimizerParams &p = opt.params();
    for (double u = 0.0; u <= 1.0; u += 0.07) {
        sched::OptimizerResult got = opt.choose(u);

        sched::OptimizerResult want;
        bool found = false;
        auto consider = [&](const sched::LookupPoint &pt) {
            double power = teg.powerFromTemps(
                pt.t_out_c, p.cold_source_c, pt.flow_lph);
            if (!found || power > want.teg_power_w) {
                found = true;
                want.setting.t_in_c = pt.t_in_c;
                want.setting.flow_lph = pt.flow_lph;
                want.teg_power_w = power;
                want.t_cpu_c = pt.t_cpu_c;
            }
        };
        std::vector<sched::LookupPoint> in_band;
        for (const sched::LookupPoint &pt : space.slice(u)) {
            if (std::abs(pt.t_cpu_c - p.t_safe_c) <= p.band_c)
                in_band.push_back(pt);
        }
        want.candidates = in_band.size();
        for (const sched::LookupPoint &pt : in_band)
            consider(pt);
        if (!found) {
            want.fallback = true;
            for (const sched::LookupPoint &pt : space.slice(u)) {
                if (pt.t_cpu_c <= p.t_safe_c + p.band_c)
                    consider(pt);
            }
        }
        ASSERT_TRUE(found) << u;

        EXPECT_DOUBLE_EQ(got.setting.t_in_c, want.setting.t_in_c) << u;
        EXPECT_DOUBLE_EQ(got.setting.flow_lph, want.setting.flow_lph)
            << u;
        EXPECT_DOUBLE_EQ(got.teg_power_w, want.teg_power_w) << u;
        EXPECT_EQ(got.candidates, want.candidates) << u;
        EXPECT_EQ(got.fallback, want.fallback) << u;
    }
}

// ----------------------------------------------- allocation-free twins

TEST(IntoTwinsTest, TraceStepIntoMatchesStep)
{
    workload::TraceGenerator gen(5);
    auto trace = gen.generate(workload::TraceGenParams{}, 8, 3600.0);
    std::vector<double> buf;
    for (size_t s = 0; s < trace.numSteps(); ++s) {
        trace.stepInto(s, buf);
        ASSERT_EQ(buf, trace.step(s)) << "step " << s;
    }
}

TEST(IntoTwinsTest, RecorderHandleMatchesStringPath)
{
    sim::Recorder rec(1.0);
    sim::Recorder::Channel ch = rec.channel("x");
    EXPECT_TRUE(ch.valid());
    rec.record(ch, 1.0);
    rec.record("x", 2.0);
    rec.record(ch, 3.0);
    rec.record("y", 4.0);
    EXPECT_EQ(rec.series("x").size(), 3u);
    EXPECT_DOUBLE_EQ(rec.series("x").at(1), 2.0);
    EXPECT_DOUBLE_EQ(rec.series("y").at(0), 4.0);
    EXPECT_EQ(rec.channels(),
              (std::vector<std::string>{"x", "y"}));
    EXPECT_THROW(rec.record(sim::Recorder::Channel(), 0.0), Error);
}

} // namespace
} // namespace h2p
