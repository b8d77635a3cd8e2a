/**
 * @file
 * Hot-path performance machinery tests: the dynamic fork-join of
 * util::parallelForDynamic, state reuse across
 * Datacenter::evaluateInto calls, the cooling-optimizer decision
 * cache, and the allocation-free *Into twins of the per-step APIs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "cluster/datacenter.h"
#include "core/h2p_system.h"
#include "sched/cooling_optimizer.h"
#include "sim/recorder.h"
#include "util/error.h"
#include "util/parallel.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace {

// ------------------------------------------------------ fork-join

TEST(ThreadPoolTest, VisitsEveryIndexOnceOddWorkerCounts)
{
    for (size_t workers : {1u, 2u, 3u, 5u, 9u}) {
        std::vector<std::atomic<int>> hits(17);
        for (auto &h : hits)
            h = 0;
        util::parallelForDynamic(hits.size(), workers,
                                 [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << ", workers " << workers;
    }
}

TEST(ThreadPoolTest, EmptyRangeCallsNothing)
{
    std::atomic<int> calls{0};
    util::parallelForDynamic(0, 4, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, MoreWorkersThanItems)
{
    std::vector<std::atomic<int>> hits(3);
    for (auto &h : hits)
        h = 0;
    util::parallelForDynamic(hits.size(), 8,
                             [&](size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives)
{
    EXPECT_THROW(util::parallelForDynamic(16, 4,
                                          [](size_t i) {
                                              if (i == 11)
                                                  fatal("worker exploded");
                                          }),
                 Error);
    // A failed call leaves nothing behind: the next one runs normally.
    std::atomic<int> calls{0};
    util::parallelForDynamic(8, 4, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 8);
}

// ------------------------------------------------- state reuse

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
