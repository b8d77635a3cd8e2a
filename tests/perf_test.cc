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
#include <cstring>
#include <vector>

#include "cluster/datacenter.h"
#include "core/h2p_system.h"
#include "sched/cooling_optimizer.h"
#include "tests/support/evaluate.h"
#include "sim/recorder.h"
#include "util/error.h"
#include "util/interpolate.h"
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

    cluster::DatacenterState fresh = test::evaluateFleet(dc, lo, settings);
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
    static constexpr double kCold = 20.0;
    static constexpr double kQuantum = 1e-3;

    CacheFixture() : server(), space(server), teg(12) {}

    cluster::Server server;
    /**
     * Not LookupSpaceCache's, so every optimizer over it has decision
     * tables of its own.
     */
    sched::LookupSpace space;
    thermal::TegModule teg;
};

TEST_F(CacheFixture, CachedEqualsUncachedAtQuantizedUtil)
{
    sched::CoolingOptimizer cached(space, teg, kCold, {}, 0.0, kQuantum);
    sched::CoolingOptimizer exact(space, teg, kCold); // no table: exact

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
    sched::CoolingOptimizer opt(space, teg, kCold, {}, 0.0, kQuantum);
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

    // A fresh optimizer on a private table remembers nothing.
    sched::CoolingOptimizer fresh(space, teg, kCold, {}, 0.0, kQuantum);
    EXPECT_EQ(fresh.cacheSize(), 0u);
    fresh.choose(0.42);
    EXPECT_EQ(fresh.cacheHits(), 0u);
    EXPECT_EQ(fresh.cacheMisses(), 1u);
    EXPECT_EQ(opt.cacheHits(), 6u);
}

TEST_F(CacheFixture, TsafeOverrideKeyedSeparately)
{
    const sched::OptimizerParams p;
    using sched::SafeModeAction;
    sched::CoolingOptimizer opt(space, teg, kCold, p, 5.0, kQuantum);

    sched::OptimizerResult normal = opt.choose(0.5);
    sched::OptimizerResult widened =
        opt.choose(0.5, SafeModeAction::WidenMargin);
    // The two planning temperatures must not collide in the cache.
    EXPECT_LE(widened.t_cpu_c, normal.t_cpu_c + 1e-9);
    sched::OptimizerResult normal2 = opt.choose(0.5);
    sched::OptimizerResult widened2 =
        opt.choose(0.5, SafeModeAction::WidenMargin);
    EXPECT_DOUBLE_EQ(normal2.setting.t_in_c, normal.setting.t_in_c);
    EXPECT_DOUBLE_EQ(widened2.setting.t_in_c, widened.setting.t_in_c);
    EXPECT_EQ(opt.cacheSize(), 2u);
    EXPECT_EQ(opt.cacheHits(), 2u);
}

TEST_F(CacheFixture, VisitorSearchMatchesSliceReference)
{
    // The streaming three-tier search must reproduce a reference that
    // materializes the slice point by point through the trilinear
    // cpuTemp()/outletTemp() queries, bit for bit. The inputs reach
    // every tier: the band (band_c = 0 leaves it empty almost
    // everywhere), Fallback 1 (low load) and Fallback 2 (a T_safe
    // override so low that nothing is safe).
    const GridAxis af(space.params().flow_min_lph,
                      space.params().flow_max_lph,
                      space.params().flow_points);
    const GridAxis at(space.params().tin_min_c, space.params().tin_max_c,
                      space.params().tin_points);
    auto pointwiseSlice = [&](double u) {
        std::vector<sched::LookupPoint> slice;
        for (size_t j = 0; j < af.count(); ++j) {
            for (size_t k = 0; k < at.count(); ++k) {
                sched::LookupPoint pt;
                pt.util = u;
                pt.flow_lph = af.coord(j);
                pt.t_in_c = at.coord(k);
                pt.t_cpu_c = space.cpuTemp(u, pt.flow_lph, pt.t_in_c);
                pt.t_out_c = space.outletTemp(u, pt.flow_lph, pt.t_in_c);
                slice.push_back(pt);
            }
        }
        return slice;
    };
    auto reference = [&](const sched::OptimizerParams &p, double u,
                         double t_safe) {
        sched::OptimizerResult want;
        bool found = false;
        auto consider = [&](const sched::LookupPoint &pt) {
            double power = teg.powerFromTemps(
                pt.t_out_c, kCold, pt.flow_lph);
            if (!found || power > want.teg_power_w) {
                found = true;
                want.setting.t_in_c = pt.t_in_c;
                want.setting.flow_lph = pt.flow_lph;
                want.teg_power_w = power;
                want.t_cpu_c = pt.t_cpu_c;
            }
        };
        const std::vector<sched::LookupPoint> slice = pointwiseSlice(u);
        std::vector<sched::LookupPoint> in_band;
        for (const sched::LookupPoint &pt : slice) {
            if (std::abs(pt.t_cpu_c - t_safe) <= p.band_c)
                in_band.push_back(pt);
        }
        want.candidates = in_band.size();
        for (const sched::LookupPoint &pt : in_band)
            consider(pt);
        if (!found) {
            want.fallback = true;
            for (const sched::LookupPoint &pt : slice) {
                if (pt.t_cpu_c <= t_safe + p.band_c)
                    consider(pt);
            }
        }
        if (!found) {
            const sched::LookupPoint *coldest = &slice.front();
            for (const sched::LookupPoint &pt : slice) {
                if (pt.t_cpu_c < coldest->t_cpu_c)
                    coldest = &pt;
            }
            want.setting.t_in_c = coldest->t_in_c;
            want.setting.flow_lph = coldest->flow_lph;
            want.teg_power_w = teg.powerFromTemps(
                coldest->t_out_c, kCold, coldest->flow_lph);
            want.t_cpu_c = coldest->t_cpu_c;
        }
        return want;
    };
    auto sameBits = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof(a)) == 0;
    };

    sched::OptimizerParams zero_band;
    zero_band.band_c = 0.0;
    size_t tiers[3] = {0, 0, 0};
    for (const sched::OptimizerParams &p :
         {sched::OptimizerParams{}, zero_band}) {
        for (double margin : {0.0, 5.0, 40.0}) {
            // Cache off; WidenMargin plans at T_safe - margin.
            sched::CoolingOptimizer opt(space, teg, kCold, p, margin);
            const double t_safe = p.t_safe_c - margin;
            for (double u = 0.0; u <= 1.0; u += 0.07) {
                sched::OptimizerResult got =
                    opt.choose(u, sched::SafeModeAction::WidenMargin);
                sched::OptimizerResult want = reference(p, u, t_safe);
                EXPECT_TRUE(sameBits(got.setting.t_in_c,
                                     want.setting.t_in_c))
                    << u << " " << t_safe;
                EXPECT_TRUE(sameBits(got.setting.flow_lph,
                                     want.setting.flow_lph))
                    << u << " " << t_safe;
                EXPECT_TRUE(sameBits(got.teg_power_w, want.teg_power_w))
                    << u << " " << t_safe;
                EXPECT_TRUE(sameBits(got.t_cpu_c, want.t_cpu_c))
                    << u << " " << t_safe;
                EXPECT_EQ(got.candidates, want.candidates) << u;
                EXPECT_EQ(got.fallback, want.fallback) << u;
                ++tiers[!want.fallback ? 0
                        : want.t_cpu_c <= t_safe + p.band_c ? 1
                                                            : 2];
            }
        }
    }
    // Every tier of the search was compared at least once.
    EXPECT_GT(tiers[0], 0u);
    EXPECT_GT(tiers[1], 0u);
    EXPECT_GT(tiers[2], 0u);
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
