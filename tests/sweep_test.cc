/**
 * @file
 * Tests of the batched sweep engine and the shared immutable state
 * underneath it: bit-identity with serial execution at any worker
 * count, deterministic streaming order, look-up table sharing and the
 * dynamic fork-join primitive.
 */

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/h2p_system.h"
#include "core/sweep_engine.h"
#include "sched/lookup_cache.h"
#include "sim/channels.h"
#include "tests/support/fields.h"
#include "tests/support/mutate.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/parallel.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace {

core::H2PConfig
baseConfig(bool faulted)
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 40;
    cfg.datacenter.servers_per_circulation = 10;
    if (faulted) {
        cfg.faults.seed = 77;
        cfg.faults.pump_degrade_per_circ_year = 2000.0;
        cfg.faults.teg_open_per_server_year = 30.0;
        cfg.faults.chiller_outages_per_year = 40.0;
        cfg.safe_mode.enabled = true;
        cfg.safe_mode.watchdog_enabled = true;
    }
    return cfg;
}

workload::UtilizationTrace
makeTrace(size_t servers = 40, uint64_t seed = 5)
{
    workload::TraceGenerator gen(seed);
    return gen.generate(workload::TraceGenParams::forProfile(
                            workload::TraceProfile::Drastic),
                        servers, 4.0 * 3600.0);
}

std::vector<core::SweepPoint>
makeGrid(const workload::UtilizationTrace &trace, bool faulted)
{
    std::vector<core::SweepPoint> grid;
    for (double t_safe : {58.0, 61.0, 64.0, 67.0, 70.0}) {
        for (sched::Policy policy : {sched::Policy::TegOriginal,
                                     sched::Policy::TegLoadBalance}) {
            core::SweepPoint pt;
            pt.config = baseConfig(faulted);
            pt.config.optimizer.t_safe_c = t_safe;
            pt.trace = &trace;
            pt.policy = policy;
            pt.label = "t_safe=" + std::to_string(t_safe);
            grid.push_back(pt);
        }
    }
    return grid;
}

// --------------------------------------------- field comparator

TEST(SweepTest, FieldComparatorNamesEachPerturbedField)
{
    core::RunSummary summary;
    test::setDistinctValues(summary);
    EXPECT_EQ(test::firstDifferingField(summary, summary), "");
    size_t changed = 0;
    test::forEachFieldChange(
        summary, [&](const core::RunSummary &mutant, const std::string &key) {
            EXPECT_EQ(test::firstDifferingField(summary, mutant), key);
            EXPECT_EQ(test::firstDifferingField(mutant, summary), key);
            ++changed;
        });
    EXPECT_EQ(changed, test::fieldNames(summary).size());

    // Bitwise, not by value: -0 differs from +0.
    core::RunSummary negative = summary;
    summary.pre = 0.0;
    negative.pre = -0.0;
    EXPECT_EQ(test::firstDifferingField(summary, negative), "pre");

    // A journaled point: its own fields, then its summary's or, for a
    // quarantined point, its failure's.
    for (core::PointStatus status :
         {core::PointStatus::Completed, core::PointStatus::Quarantined}) {
        core::SweepPointResult point;
        test::setDistinctValues(point);
        point.status = status;
        point.summary = summary;
        size_t point_changed = 0;
        test::forEachFieldChange(
            point,
            [&](const core::SweepPointResult &mutant, const std::string &key) {
                EXPECT_EQ(test::firstDifferingField(point, mutant), key);
                ++point_changed;
            });
        EXPECT_EQ(point_changed, test::fieldNames(point).size());
    }
}

// --------------------------------------------- batched == serial

class SweepIdentityTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t>>
{
};

TEST_P(SweepIdentityTest, BatchedMatchesSerialBitwise)
{
    const bool faulted = std::get<0>(GetParam());
    const size_t workers = std::get<1>(GetParam());

    auto trace = makeTrace();
    auto grid = makeGrid(trace, faulted);

    // Serial reference: plain one-at-a-time H2PSystem::run().
    std::vector<core::RunResult> serial;
    for (const core::SweepPoint &pt : grid) {
        core::H2PSystem system(pt.config);
        serial.push_back(system.run(*pt.trace, pt.policy));
    }

    core::SweepOptions options;
    options.workers = workers;
    core::SweepEngine engine(options);
    core::SweepResult result = engine.run(grid);

    ASSERT_EQ(result.points.size(), grid.size());
    EXPECT_EQ(result.runs_completed, grid.size());
    EXPECT_FALSE(result.cancelled);
    for (size_t i = 0; i < grid.size(); ++i) {
        const core::SweepPointResult &pr = result.points[i];
        EXPECT_EQ(pr.index, i);
        EXPECT_EQ(pr.label, grid[i].label);
        EXPECT_EQ(pr.status, core::PointStatus::Completed);
        EXPECT_EQ(test::firstDifferingField(pr.summary,
                                            serial[i].summary),
                  "");
        // Per-step channels too, sample for sample.
        ASSERT_NE(pr.recorder, nullptr);
        for (const std::string &ch :
             serial[i].recorder->channels()) {
            EXPECT_EQ(pr.recorder->series(ch).samples(),
                      serial[i].recorder->series(ch).samples())
                << "channel " << ch << " of point " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    CleanAndFaulted, SweepIdentityTest,
    ::testing::Combine(::testing::Values(false, true),
                       ::testing::Values(size_t{1}, size_t{2},
                                         size_t{8})));

// --------------------------------------------- streaming order

TEST(SweepTest, CallbackStreamsInGridOrder)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, false);

    core::SweepOptions options;
    options.workers = 8; // parallel completion, ordered emission
    options.keep_recorders = false;
    core::SweepEngine engine(options);

    std::vector<size_t> seen;
    core::SweepResult result =
        engine.run(grid, [&](const core::SweepPointResult &r) {
            seen.push_back(r.index);
        });

    ASSERT_EQ(seen.size(), grid.size());
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i);
    for (const core::SweepPointResult &pr : result.points)
        EXPECT_EQ(pr.recorder, nullptr); // keep_recorders off
}

TEST(SweepTest, ForEachOrderedEmitsInOrderUnderShuffledCompletion)
{
    // Reverse-staircase delays: the highest index finishes first, so
    // ordered emission actually has to buffer.
    const size_t n = 24;
    std::vector<int> computed(n, 0);
    std::vector<size_t> emitted;
    core::SweepEngine::forEachOrdered(
        n, 8,
        [&](size_t i) {
            std::this_thread::sleep_for(
                std::chrono::microseconds((n - i) * 200));
            computed[i] = 1;
        },
        [&](size_t i) { emitted.push_back(i); });
    EXPECT_EQ(std::count(computed.begin(), computed.end(), 1),
              static_cast<long>(n));
    ASSERT_EQ(emitted.size(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(emitted[i], i);
}

TEST(SweepTest, ForEachOrderedHandlesEdgeCases)
{
    // n = 0: no calls at all.
    core::SweepEngine::forEachOrdered(
        0, 4, [&](size_t) { FAIL() << "compute on empty range"; },
        [&](size_t) { FAIL() << "emit on empty range"; });

    // n = 1: runs inline.
    size_t computes = 0, emits = 0;
    core::SweepEngine::forEachOrdered(
        1, 4, [&](size_t) { ++computes; }, [&](size_t) { ++emits; });
    EXPECT_EQ(computes, 1u);
    EXPECT_EQ(emits, 1u);

    // Null emit is allowed.
    std::atomic<size_t> ran{0};
    core::SweepEngine::forEachOrdered(
        10, 4, [&](size_t) { ran.fetch_add(1); }, nullptr);
    EXPECT_EQ(ran.load(), 10u);
}

// --------------------------------------------- grid edge cases

TEST(SweepTest, EmptyGridReturnsEmptyResult)
{
    core::SweepEngine engine;
    core::SweepResult result = engine.run({});
    EXPECT_TRUE(result.points.empty());
    EXPECT_EQ(result.runs_completed, 0u);
    EXPECT_FALSE(result.cancelled);
}

TEST(SweepTest, SinglePointAndDuplicatePointsWork)
{
    auto trace = makeTrace();
    core::SweepPoint pt;
    pt.config = baseConfig(false);
    pt.trace = &trace;
    pt.policy = sched::Policy::TegLoadBalance;
    pt.label = "only";

    core::SweepEngine engine;
    core::SweepResult one = engine.run({pt});
    ASSERT_EQ(one.points.size(), 1u);
    EXPECT_EQ(one.points[0].status, core::PointStatus::Completed);
    EXPECT_EQ(one.workers, 1u); // auto workers, clamped to the grid

    // Duplicates are just independent identical runs.
    core::SweepResult dup = engine.run({pt, pt, pt});
    ASSERT_EQ(dup.points.size(), 3u);
    for (const core::SweepPointResult &r : dup.points)
        EXPECT_EQ(test::firstDifferingField(r.summary,
                                            one.points[0].summary),
                  "");
}

TEST(SweepTest, MissingTraceIsRejected)
{
    core::SweepPoint pt;
    pt.config = baseConfig(false);
    pt.label = "no-trace";
    core::SweepEngine engine;
    EXPECT_THROW(engine.run({pt}), Error);
}

// --------------------------------------------- errors and cancel

TEST(SweepTest, FailingPointIsQuarantinedByDefault)
{
    auto trace = makeTrace(40);
    auto grid = makeGrid(trace, false);
    grid[3].config.datacenter.num_servers = 500;
    grid[3].label = "bad-point";

    for (size_t workers : {size_t{1}, size_t{4}}) {
        core::SweepOptions options;
        options.workers = workers;
        options.keep_recorders = false;
        core::SweepEngine engine(options);
        core::SweepResult result = engine.run(grid);

        ASSERT_EQ(result.points.size(), grid.size());
        EXPECT_EQ(result.quarantined, 1u);
        EXPECT_EQ(result.runs_completed, grid.size() - 1);
        const core::SweepPointResult &bad = result.points[3];
        EXPECT_EQ(bad.index, 3u);
        EXPECT_EQ(bad.label, "bad-point");
        EXPECT_EQ(bad.status, core::PointStatus::Quarantined);
        EXPECT_EQ(bad.failure.kind, FailureKind::ConfigError);
        EXPECT_EQ(bad.attempts, 1u); // deterministic: never retried
        for (size_t i = 0; i < result.points.size(); ++i) {
            if (i == 3)
                continue;
            EXPECT_EQ(result.points[i].status,
                      core::PointStatus::Completed)
                << "point " << i;
        }
    }
}

TEST(SweepTest, CancelFromCallbackStopsLaunchingRuns)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, false);

    util::CancelToken cancel;
    core::SweepOptions options;
    options.workers = 1; // deterministic: strictly one run at a time
    options.keep_recorders = false;
    options.cancel = &cancel;
    core::SweepEngine engine(options);
    size_t delivered = 0;
    core::SweepResult result =
        engine.run(grid, [&](const core::SweepPointResult &) {
            if (++delivered == 2)
                cancel.requestCancel();
        });

    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(delivered, 2u);
    EXPECT_EQ(result.runs_completed, 2u);
    ASSERT_EQ(result.points.size(), grid.size());
    EXPECT_EQ(result.points[0].status, core::PointStatus::Completed);
    EXPECT_EQ(result.points[1].status, core::PointStatus::Completed);
    for (size_t i = 2; i < result.points.size(); ++i) {
        EXPECT_EQ(result.points[i].status, core::PointStatus::Skipped);
    }

    // Re-armed, the token lets the next run complete fully.
    cancel.reset();
    core::SweepResult again = engine.run(grid);
    EXPECT_FALSE(again.cancelled);
    EXPECT_EQ(again.runs_completed, grid.size());
}

TEST(SweepTest, CancelDeliversContiguousPrefixAtAnyWorkerCount)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, false);

    for (size_t workers : {size_t{1}, size_t{4}}) {
        util::CancelToken cancel;
        core::SweepOptions options;
        options.workers = workers;
        options.keep_recorders = false;
        options.cancel = &cancel;
        core::SweepEngine engine(options);
        std::vector<size_t> seen;
        core::SweepResult result =
            engine.run(grid, [&](const core::SweepPointResult &r) {
                seen.push_back(r.index);
                if (seen.size() == 3)
                    cancel.requestCancel();
            });

        EXPECT_TRUE(result.cancelled);
        // Delivered indices form a contiguous prefix 0..k even when
        // in-flight higher-index points finished after the cancel.
        ASSERT_GE(seen.size(), 3u);
        for (size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], i) << "workers=" << workers;
        // Everything delivered actually completed.
        for (size_t i : seen)
            EXPECT_EQ(result.points[i].status,
                      core::PointStatus::Completed);
    }
}

TEST(SweepTest, EngineIsReusableAfterCancelledSweep)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, false);

    util::CancelToken cancel;
    core::SweepOptions options;
    options.workers = 4;
    options.keep_recorders = false;
    options.cancel = &cancel;
    core::SweepEngine engine(options);
    // Point 0 requests the cancel as it starts, so its first step's
    // guard skips it and the sweep is cut short by construction. A
    // cancel raised when point 0 is delivered races the other workers,
    // which can finish every remaining point first. A factory that
    // returns null runs the built-in pipeline.
    std::vector<core::SweepPoint> cancelling = grid;
    cancelling[0].make_pipeline = [&cancel] {
        cancel.requestCancel();
        return std::unique_ptr<control::ControlPipeline>();
    };
    core::SweepResult first = engine.run(cancelling);
    EXPECT_TRUE(first.cancelled);
    EXPECT_LT(first.runs_completed, grid.size());

    // Same engine, token re-armed, fresh sweep: full completion,
    // results intact.
    cancel.reset();
    core::SweepResult second = engine.run(grid);
    EXPECT_FALSE(second.cancelled);
    EXPECT_EQ(second.runs_completed, grid.size());
    for (const core::SweepPointResult &p : second.points)
        EXPECT_EQ(p.status, core::PointStatus::Completed);
}

// --------------------------------------------- shared lookup space

TEST(SweepTest, GridVaryingOnlySetpointBuildsOneLookupSpace)
{
    sched::LookupSpaceCache::instance().clear();
    auto trace = makeTrace();
    auto grid = makeGrid(trace, false); // t_safe x policy only

    core::SweepOptions options;
    options.workers = 4;
    core::SweepEngine engine(options);
    core::SweepResult result = engine.run(grid);
    EXPECT_EQ(result.lookup_spaces_built, 1u);
    EXPECT_GE(sched::LookupSpaceCache::instance().hits(),
              grid.size() - 1);
}

TEST(SweepTest, LookupGridDimensionBuildsOnePerVariant)
{
    sched::LookupSpaceCache::instance().clear();
    auto trace = makeTrace();
    std::vector<core::SweepPoint> grid;
    for (double cap : {80.0, 100.0, 120.0}) {
        core::SweepPoint pt;
        pt.config = baseConfig(false);
        pt.config.lookup.flow_max_lph = cap;
        pt.trace = &trace;
        pt.policy = sched::Policy::TegLoadBalance;
        grid.push_back(pt);
    }
    core::SweepEngine engine;
    core::SweepResult result = engine.run(grid);
    EXPECT_EQ(result.lookup_spaces_built, 3u);
}

TEST(SweepTest, CachedLookupSpaceIsBitIdenticalToFresh)
{
    sched::LookupSpaceCache::instance().clear();
    cluster::ServerParams server;
    sched::LookupSpaceParams params;
    auto cached =
        sched::LookupSpaceCache::instance().acquire(server, params);
    auto again =
        sched::LookupSpaceCache::instance().acquire(server, params);
    EXPECT_EQ(cached.get(), again.get()); // one shared instance
    EXPECT_EQ(sched::LookupSpaceCache::instance().builds(), 1u);
    EXPECT_EQ(sched::LookupSpaceCache::instance().hits(), 1u);

    // Regression: the cached table must be the table a fresh
    // construction produces, sample for sample.
    cluster::Server model(server);
    sched::LookupSpace fresh(model, params);
    for (double u : {0.0, 0.25, 0.5, 0.91, 1.0})
        for (double f : {12.0, 37.0, 60.0, 99.0})
            for (double t : {22.0, 33.5, 41.0, 54.0}) {
                EXPECT_EQ(cached->cpuTemp(u, f, t),
                          fresh.cpuTemp(u, f, t));
                EXPECT_EQ(cached->outletTemp(u, f, t),
                          fresh.outletTemp(u, f, t));
            }
}

TEST(SweepTest, CacheDistinguishesServerAndGridParams)
{
    sched::LookupSpaceCache::instance().clear();
    cluster::ServerParams server;
    sched::LookupSpaceParams params;
    auto base =
        sched::LookupSpaceCache::instance().acquire(server, params);

    cluster::ServerParams warmer = server;
    warmer.thermal.gamma_slope += 0.01;
    auto other =
        sched::LookupSpaceCache::instance().acquire(warmer, params);
    EXPECT_NE(base.get(), other.get());

    sched::LookupSpaceParams finer = params;
    finer.tin_points += 4;
    auto third =
        sched::LookupSpaceCache::instance().acquire(server, finer);
    EXPECT_NE(base.get(), third.get());
    EXPECT_EQ(sched::LookupSpaceCache::instance().builds(), 3u);
}

TEST(SweepTest, SystemsShareTheCachedLookupSpace)
{
    sched::LookupSpaceCache::instance().clear();
    core::H2PConfig cfg = baseConfig(false);
    core::H2PSystem a(cfg);
    core::H2PSystem b(cfg);
    EXPECT_EQ(&a.lookupSpace(), &b.lookupSpace());
    EXPECT_EQ(sched::LookupSpaceCache::instance().builds(), 1u);
}

TEST(SweepTest, LookupFingerprintCoversTheSampledModelOnly)
{
    using sched::LookupSpaceCache;
    const cluster::ServerParams server;
    const sched::LookupSpaceParams grid;
    const uint64_t base = LookupSpaceCache::fingerprint(server, grid);

    // Every CPU power, CPU thermal and grid field keys the table ...
    size_t keyed = 0;
    test::forEachFieldChange(
        server.power,
        [&](const workload::CpuPowerParams &m, const std::string &key) {
            cluster::ServerParams s = server;
            s.power = m;
            EXPECT_NE(LookupSpaceCache::fingerprint(s, grid), base) << key;
            ++keyed;
        });
    test::forEachFieldChange(
        server.thermal,
        [&](const thermal::CpuThermalParams &m, const std::string &key) {
            cluster::ServerParams s = server;
            s.thermal = m;
            EXPECT_NE(LookupSpaceCache::fingerprint(s, grid), base) << key;
            ++keyed;
        });
    test::forEachFieldChange(
        grid, [&](const sched::LookupSpaceParams &m, const std::string &key) {
            EXPECT_NE(LookupSpaceCache::fingerprint(server, m), base) << key;
            ++keyed;
        });
    EXPECT_EQ(keyed, 3u + 8u + 7u);

    // ... and no TEG or optimizer field does: systems that differ only
    // there sample one table (lookup_spaces_built == 1 in sweeps).
    LookupSpaceCache::instance().clear();
    const core::H2PConfig cfg = baseConfig(false);
    const core::H2PSystem reference(cfg);
    auto sharesTheSpace = [&](const core::H2PConfig &c,
                              const std::string &key) {
        EXPECT_EQ(&core::H2PSystem(c).lookupSpace(),
                  &reference.lookupSpace())
            << key;
    };
    test::forEachFieldChange(
        cfg.datacenter.server.teg,
        [&](const thermal::TegParams &m, const std::string &key) {
            core::H2PConfig c = cfg;
            c.datacenter.server.teg = m;
            sharesTheSpace(c, key);
        });
    test::forEachFieldChange(
        cfg.optimizer,
        [&](const sched::OptimizerParams &m, const std::string &key) {
            core::H2PConfig c = cfg;
            c.optimizer = m;
            sharesTheSpace(c, key);
        });
    core::H2PConfig fewer = cfg;
    fewer.datacenter.server.tegs_per_server = 10;
    sharesTheSpace(fewer, "tegs_per_server");
    EXPECT_EQ(LookupSpaceCache::instance().builds(), 1u);
}

// --------------------------------------------- shared decision table

TEST(SweepTest, SharedDecisionTableMatchesFreshTablePerPoint)
{
    // Sweep points of one configuration share a decision table, so
    // later points read decisions earlier ones computed. Every summary
    // must still be the one a standalone run on an empty cache gives.
    for (bool faulted : {false, true}) {
        auto trace = makeTrace();
        auto grid = makeGrid(trace, faulted);
        std::vector<core::RunSummary> fresh;
        for (const core::SweepPoint &pt : grid) {
            sched::LookupSpaceCache::instance().clear();
            core::H2PSystem system(pt.config);
            fresh.push_back(system.run(*pt.trace, pt.policy).summary);
        }
        for (size_t workers : {size_t{1}, size_t{4}}) {
            sched::LookupSpaceCache::instance().clear();
            core::SweepOptions options;
            options.workers = workers;
            options.keep_recorders = false;
            core::SweepResult result = core::SweepEngine(options).run(grid);
            ASSERT_EQ(result.points.size(), grid.size());
            for (size_t i = 0; i < grid.size(); ++i) {
                SCOPED_TRACE(testing::Message()
                             << "faulted=" << faulted
                             << " workers=" << workers << " point=" << i);
                EXPECT_EQ(result.points[i].status,
                      core::PointStatus::Completed);
                EXPECT_EQ(test::firstDifferingField(result.points[i].summary,
                                                    fresh[i]),
                          "");
            }
        }
    }
}

TEST(SweepTest, SecondSystemOfOneConfigSearchesNothing)
{
    // optimizer.cache_misses counts the grid searches a run performed:
    // a second system of the same configuration finds every decision
    // the first one made already in the shared table.
    sched::LookupSpaceCache::instance().clear();
    auto trace = makeTrace();
    core::H2PConfig cfg = baseConfig(true);
    cfg.obs.enabled = true;
    auto misses = [&](const core::H2PSystem &system) {
        return system.observability()->metrics().counterValue(
            "optimizer.cache_misses");
    };

    core::H2PSystem first(cfg);
    first.run(trace, sched::Policy::TegLoadBalance);
    EXPECT_GT(misses(first), 0u);

    core::H2PSystem second(cfg);
    second.run(trace, sched::Policy::TegLoadBalance);
    EXPECT_EQ(misses(second), 0u);
    EXPECT_GT(second.observability()->metrics().counterValue(
                  "optimizer.cache_hits"),
              0u);

    // clear() drops the tables with the spaces: searches start over.
    sched::LookupSpaceCache::instance().clear();
    core::H2PSystem third(cfg);
    third.run(trace, sched::Policy::TegLoadBalance);
    EXPECT_EQ(misses(third), misses(first));
}

TEST(SweepTest, DecisionTableIsSharedPerConfiguration)
{
    sched::LookupSpaceCache::instance().clear();
    sched::LookupSpaceCache &cache = sched::LookupSpaceCache::instance();
    cluster::ServerParams server;
    auto space = cache.acquire(server, sched::LookupSpaceParams{});
    thermal::TegModule teg(12);
    const double band = 1.0, cold = 20.0, t_safe = 60.0, q = 1e-3;

    // One table per (inputs, T_safe); another T_safe is another table.
    auto table = cache.decisionTable(*space, teg, band, cold, t_safe, q);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(cache.decisionTable(*space, teg, band, cold, t_safe, q),
              table);
    EXPECT_NE(cache.decisionTable(*space, teg, band, cold, t_safe - 3.0, q),
              table);
    EXPECT_NE(cache.decisionTable(*space, teg, band + 1.0, cold, t_safe, q),
              table);
    EXPECT_NE(cache.decisionTable(*space, teg, band, cold, t_safe, 2e-3),
              table);

    // The widened table of an optimizer at 60 with margin 3 is the
    // normal table of one at 57: a decision the first makes under
    // WidenMargin is a hit for the second.
    sched::OptimizerParams at60;
    at60.t_safe_c = t_safe;
    at60.band_c = band;
    sched::OptimizerParams at57 = at60;
    at57.t_safe_c = t_safe - 3.0;
    sched::CoolingOptimizer guarded(*space, teg, cold, at60, 3.0, q);
    sched::CoolingOptimizer colder(*space, teg, cold, at57, 0.0, q);
    const sched::OptimizerResult widened =
        guarded.choose(0.5, sched::SafeModeAction::WidenMargin);
    EXPECT_EQ(guarded.cacheMisses(), 1u);
    const sched::OptimizerResult normal = colder.choose(0.5);
    EXPECT_EQ(colder.cacheHits(), 1u);
    EXPECT_EQ(colder.cacheMisses(), 0u);
    auto sameBits = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(x)) == 0;
    };
    EXPECT_TRUE(sameBits(widened.setting.t_in_c, normal.setting.t_in_c));
    EXPECT_TRUE(sameBits(widened.setting.flow_lph, normal.setting.flow_lph));

    // No table with the cache off; an unshared one for a space the
    // cache does not hold; a negative quantum is refused.
    EXPECT_EQ(cache.decisionTable(*space, teg, band, cold, t_safe, 0.0),
              nullptr);
    EXPECT_THROW(cache.decisionTable(*space, teg, band, cold, t_safe, -q),
                 Error);
    cluster::Server model(server);
    sched::LookupSpace own(model);
    auto private_table = cache.decisionTable(own, teg, band, cold, t_safe, q);
    ASSERT_NE(private_table, nullptr);
    EXPECT_NE(cache.decisionTable(own, teg, band, cold, t_safe, q),
              private_table);
    EXPECT_TRUE(private_table->serves(own, teg, band, cold, t_safe));
}

// --------------------------------------------- run-level fork-join

TEST(SweepTest, ParallelForDynamicRunsEveryIndexOnce)
{
    // Odd worker counts, more workers than items, an empty range, and
    // one worker (the inline path): every index runs exactly once.
    for (size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                           size_t{9}}) {
        for (size_t n : {size_t{0}, size_t{3}, size_t{103}}) {
            std::vector<std::atomic<int>> counts(n);
            for (auto &c : counts)
                c.store(0);
            util::parallelForDynamic(n, workers, [&](size_t i) {
                counts[i].fetch_add(1);
            });
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(counts[i].load(), 1)
                    << "index " << i << " of " << n << ", workers "
                    << workers;
        }
    }
}

TEST(SweepTest, ParallelForDynamicPropagatesLowestIndexError)
{
    for (size_t workers : {size_t{1}, size_t{4}}) {
        std::atomic<size_t> ran{0};
        try {
            util::parallelForDynamic(64, workers, [&](size_t i) {
                ran.fetch_add(1);
                if (i == 7 || i == 23)
                    fatal("boom at ", i);
            });
            FAIL() << "error not propagated (workers=" << workers
                   << ")";
        } catch (const Error &e) {
            EXPECT_STREQ(e.what(), "boom at 7");
        }
        // The failures do not stop the other indices.
        EXPECT_EQ(ran.load(), 64u) << "workers=" << workers;
    }
}

TEST(SweepTest, HardwareThreadQueriesAreSane)
{
    EXPECT_GE(util::hardwareThreads(), 1u);
    EXPECT_GE(util::hostHardwareThreads(), util::hardwareThreads());
}

} // namespace
} // namespace h2p
