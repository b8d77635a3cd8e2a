/**
 * @file
 * Control-plane tests: canonical pipelines bit-identical to the
 * Scheduler::decideInto reference across safe-mode action combos, the
 * pipeline/stage API contracts, the placement, consolidation and
 * predictive stages against their sched helpers (and the predictor's
 * checkpointed state), and the autonomous thermal balancer —
 * work conservation under random traces (clean and faulted),
 * run-to-run bit-identity, checkpoint round trips (byte-identical
 * stage state), convergence under the hysteresis band,
 * drain mode (operator- and fault-driven) and the non-convergence
 * watchdog's config_error.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "control/stages.h"
#include "control/thermal_balancer.h"
#include "core/h2p_system.h"
#include "fault/fault_injector.h"
#include "sched/consolidation.h"
#include "sched/placement.h"
#include "tests/support/fn_stage.h"
#include "tests/support/scheduler_oracle.h"
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

core::H2PConfig
smallConfig()
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 64;
    cfg.datacenter.servers_per_circulation = 8;
    return cfg;
}

core::H2PConfig
balancerConfig(double drain_rate = 1.0)
{
    core::H2PConfig cfg = smallConfig();
    cfg.balancer.enabled = true;
    cfg.balancer.drain_rate = drain_rate;
    return cfg;
}

/** Safe mode on plus a scripted mid-trace pump failure on circ 0. */
core::H2PConfig
faultedBalancerConfig()
{
    core::H2PConfig cfg = balancerConfig();
    cfg.safe_mode.enabled = true;
    cfg.faults.scripted.push_back(
        {1800.0, fault::FaultKind::PumpFailed, 0, 0, 0.0, 0.0});
    return cfg;
}

workload::UtilizationTrace
makeTrace(uint64_t seed = 11, size_t servers = 64,
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

control::ThermalBalancer &
balancerOf(core::SimSession &session)
{
    control::ControlPipeline *p = session.pipeline();
    EXPECT_NE(p, nullptr);
    control::ControlStage *stage =
        p->find(control::ThermalBalancer::kName);
    EXPECT_NE(stage, nullptr);
    return static_cast<control::ThermalBalancer &>(*stage);
}

// --------------------------- canonical pipelines == decideInto

/**
 * The refactoring invariant: for both policies, the factory pipeline
 * produces the exact decision the hard-wired Scheduler::decideInto
 * path produced, bit for bit, for every safe-mode action combination.
 */
TEST(ControlPipelineTest, CanonicalPipelinesMatchSchedulerBitwise)
{
    core::H2PConfig cfg = smallConfig();
    // Safe mode gives the optimizer its WidenMargin temperature.
    cfg.safe_mode.enabled = true;
    cfg.safe_mode.margin_c = 3.0;
    core::H2PSystem sys(cfg);
    const size_t servers = sys.datacenter().numServers();
    const size_t num_circ = sys.datacenter().numCirculations();
    auto trace = makeTrace(7, servers, 3600.0);

    using sched::SafeModeAction;
    std::vector<std::vector<SafeModeAction>> action_sets;
    action_sets.emplace_back(num_circ, SafeModeAction::Normal);
    auto widened = action_sets.back();
    widened[1] = SafeModeAction::WidenMargin;
    action_sets.push_back(widened);
    auto fallback = action_sets.back();
    fallback[0] = SafeModeAction::ColdFallback;
    fallback[num_circ - 1] = SafeModeAction::WidenMargin;
    action_sets.push_back(fallback);

    for (sched::Policy policy :
         {sched::Policy::TegOriginal, sched::Policy::TegLoadBalance}) {
        auto pipeline = sys.pipelines().make(policy);
        const oracle::Scheduler reference(sys.datacenter(),
                                          sys.optimizer(), policy);
        std::vector<double> utils;
        sched::ScheduleDecision got, want;
        for (size_t step = 0; step < trace.numSteps(); ++step) {
            trace.stepInto(step, utils);
            utils.resize(servers);

            // Clean path: no actions member at all.
            control::ControlContext ctx;
            ctx.step = step;
            ctx.dt_s = trace.dt();
            ctx.dc = &sys.datacenter();
            ctx.utils = &utils;
            pipeline->run(ctx, got);
            reference.decideInto(utils, {}, want);
            ASSERT_EQ(got.utils.size(), want.utils.size());
            for (size_t i = 0; i < got.utils.size(); ++i)
                ASSERT_TRUE(sameBits(got.utils[i], want.utils[i]))
                    << toString(policy) << " step " << step;
            ASSERT_EQ(got.settings.size(), want.settings.size());
            for (size_t c = 0; c < num_circ; ++c) {
                ASSERT_TRUE(sameBits(got.settings[c].t_in_c,
                                     want.settings[c].t_in_c));
                ASSERT_TRUE(sameBits(got.settings[c].flow_lph,
                                     want.settings[c].flow_lph));
            }

            // Degraded path: every action combination.
            for (const auto &actions : action_sets) {
                ctx.actions = &actions;
                pipeline->run(ctx, got);
                reference.decideInto(utils, actions, want);
                for (size_t c = 0; c < num_circ; ++c) {
                    ASSERT_TRUE(sameBits(got.settings[c].t_in_c,
                                         want.settings[c].t_in_c))
                        << toString(policy) << " step " << step
                        << " circ " << c;
                    ASSERT_TRUE(sameBits(got.settings[c].flow_lph,
                                         want.settings[c].flow_lph));
                }
                ctx.actions = nullptr;
            }
        }
    }
}

// ------------------------------------------- pipeline API contract

TEST(ControlPipelineTest, StageNamesAreUniqueAndFindable)
{
    core::H2PSystem sys(smallConfig());
    control::ControlPipeline p("twice");
    p.add(std::make_unique<control::BalanceStage>(sys.datacenter()));
    EXPECT_NE(p.find("balance"), nullptr);
    EXPECT_EQ(p.find("nope"), nullptr);
    EXPECT_THROW(
        p.add(std::make_unique<control::BalanceStage>(sys.datacenter())),
        Error);
}

TEST(ControlPipelineTest, ApplyStateRejectsUnknownStage)
{
    core::H2PSystem sys(smallConfig());
    control::ControlPipeline p("plain");
    p.add(std::make_unique<control::BalanceStage>(sys.datacenter()));
    std::vector<std::pair<std::string, std::string>> state = {
        {"thermal_balancer", std::string("\x01", 1)}};
    EXPECT_THROW(p.applyState(state), Error);
}

TEST(ControlPipelineTest, PipelineValidatesDecisionShape)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace(3, 64, 1800.0);
    auto session = sys.startSession(
        trace, sched::Policy::TegOriginal,
        test::fnPipeline([](const control::ControlContext &,
                            sched::ScheduleDecision &d) {
            d.settings.clear(); // wrong: one per circulation
        }));
    EXPECT_THROW(session.step(), Error);
}

// ------------------------------------------ stages over sched helpers

/** The 200-server, four-loop fleet the placement ablations use. */
core::H2PConfig
fleetConfig()
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 200;
    cfg.datacenter.servers_per_circulation = 50;
    return cfg;
}

/** One decision of @p pipeline over @p utils (a clean interval). */
sched::ScheduleDecision
decide(control::ControlPipeline &pipeline, const core::H2PSystem &sys,
       const std::vector<double> &utils)
{
    control::ControlContext ctx;
    ctx.dc = &sys.datacenter();
    ctx.utils = &utils;
    sched::ScheduleDecision out;
    pipeline.run(ctx, out);
    return out;
}

std::unique_ptr<control::ControlPipeline>
pipelineOf(std::vector<std::unique_ptr<control::ControlStage>> stages)
{
    auto p = std::make_unique<control::ControlPipeline>("stages");
    for (auto &stage : stages)
        p->add(std::move(stage));
    return p;
}

void
expectSameDecision(const sched::ScheduleDecision &got,
                   const sched::ScheduleDecision &want)
{
    ASSERT_EQ(got.utils.size(), want.utils.size());
    for (size_t i = 0; i < got.utils.size(); ++i)
        ASSERT_TRUE(sameBits(got.utils[i], want.utils[i]))
            << "server " << i;
    ASSERT_EQ(got.settings.size(), want.settings.size());
    for (size_t c = 0; c < got.settings.size(); ++c) {
        ASSERT_TRUE(sameBits(got.settings[c].t_in_c,
                             want.settings[c].t_in_c));
        ASSERT_TRUE(sameBits(got.settings[c].flow_lph,
                             want.settings[c].flow_lph));
    }
}

TEST(ControlStagesTest, BalanceStagePreservesWork)
{
    // Perfect balancing within one loop: every server at the mean.
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 4;
    cfg.datacenter.servers_per_circulation = 4;
    core::H2PSystem sys(cfg);
    control::BalanceStage stage(sys.datacenter());
    std::vector<double> utils{0.1, 0.9, 0.2, 0.6};
    control::ControlContext ctx;
    ctx.dc = &sys.datacenter();
    ctx.utils = &utils;
    sched::ScheduleDecision d;
    d.utils = utils;
    stage.apply(ctx, d);
    EXPECT_DOUBLE_EQ(std::accumulate(d.utils.begin(), d.utils.end(), 0.0),
                     std::accumulate(utils.begin(), utils.end(), 0.0));
    for (double u : d.utils)
        EXPECT_DOUBLE_EQ(u, 0.45);
}

/**
 * [placement, cooling] and [placement, balance, cooling] decide
 * exactly what the sched placement helper followed by the stock
 * stages decides, for both strategies.
 */
TEST(ControlStagesTest, PlacementStageMatchesHelperThenCooling)
{
    core::H2PSystem sys(fleetConfig());
    const cluster::Datacenter &dc = sys.datacenter();
    const size_t group = dc.circulationSize(0);
    auto trace = makeTrace(2020, dc.numServers(), 4.0 * 3600.0);

    for (control::PlacementStage::Place place :
         {&sched::placeSnake, &sched::placeHotCluster}) {
        std::vector<std::unique_ptr<control::ControlStage>> plain, flat;
        plain.push_back(
            std::make_unique<control::PlacementStage>(dc, place));
        plain.push_back(
            std::make_unique<control::CoolingStage>(dc, sys.optimizer()));
        flat.push_back(
            std::make_unique<control::PlacementStage>(dc, place));
        flat.push_back(std::make_unique<control::BalanceStage>(dc));
        flat.push_back(
            std::make_unique<control::CoolingStage>(dc, sys.optimizer()));
        auto placed_cooling = pipelineOf(std::move(plain));
        auto placed_balanced = pipelineOf(std::move(flat));
        auto cooling = sys.pipelines().make(sched::Policy::TegOriginal);
        auto balanced =
            sys.pipelines().make(sched::Policy::TegLoadBalance);

        std::vector<double> utils;
        for (size_t step = 0; step < trace.numSteps(); ++step) {
            SCOPED_TRACE(step);
            trace.stepInto(step, utils);
            utils.resize(dc.numServers());
            const std::vector<double> placed = place(utils, group);
            expectSameDecision(decide(*placed_cooling, sys, utils),
                               decide(*cooling, sys, placed));
            expectSameDecision(decide(*placed_balanced, sys, utils),
                               decide(*balanced, sys, placed));
        }
    }
}

/** [consolidation, cooling] == sched::consolidate per loop + cooling. */
TEST(ControlStagesTest, ConsolidationStageMatchesHelperThenCooling)
{
    core::H2PSystem sys(fleetConfig());
    const cluster::Datacenter &dc = sys.datacenter();
    auto trace = makeTrace(2020, dc.numServers(), 4.0 * 3600.0);

    std::vector<std::unique_ptr<control::ControlStage>> stages;
    stages.push_back(
        std::make_unique<control::ConsolidationStage>(dc, 0.8));
    stages.push_back(
        std::make_unique<control::CoolingStage>(dc, sys.optimizer()));
    auto consolidated = pipelineOf(std::move(stages));
    auto cooling = sys.pipelines().make(sched::Policy::TegOriginal);

    std::vector<double> utils;
    for (size_t step = 0; step < trace.numSteps(); ++step) {
        SCOPED_TRACE(step);
        trace.stepInto(step, utils);
        utils.resize(dc.numServers());
        std::vector<double> packed;
        size_t offset = 0;
        for (size_t c = 0; c < dc.numCirculations(); ++c) {
            const size_t n = dc.circulationSize(c);
            std::vector<double> loop = sched::consolidate(
                std::vector<double>(utils.begin() + offset,
                                    utils.begin() + offset + n),
                0.8);
            packed.insert(packed.end(), loop.begin(), loop.end());
            offset += n;
        }
        expectSameDecision(decide(*consolidated, sys, utils),
                           decide(*cooling, sys, packed));
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/**
 * The predictive planner's EWMA state rides in checkpoints: a
 * predictive session checkpointed mid-run and resumed with a fresh
 * predictive pipeline finishes exactly as the uninterrupted run, and
 * save -> resume -> re-save gives the same file.
 */
TEST(ControlStagesTest, PredictiveCoolingStateSurvivesCheckpoint)
{
    TempPath ck("control_test_predictive.ckpt");
    TempPath ck2("control_test_predictive_resaved.ckpt");
    TempPath full_csv("control_test_predictive_full.csv");
    TempPath rest_csv("control_test_predictive_rest.csv");
    core::H2PSystem sys(fleetConfig());
    workload::TraceGenerator gen(2020);
    auto trace = gen.generateProfile(workload::TraceProfile::Drastic,
                                     sys.datacenter().numServers());
    auto predictive = [&sys]() {
        auto p = std::make_unique<control::ControlPipeline>("predictive");
        p->add(std::make_unique<control::PredictiveCoolingStage>(
            sys.datacenter(), sys.optimizer()));
        return p;
    };

    auto full =
        sys.startSession(trace, sched::Policy::TegOriginal, predictive());
    full.runToCompletion();
    auto full_result = full.finish();

    auto first =
        sys.startSession(trace, sched::Policy::TegOriginal, predictive());
    const size_t at = trace.numSteps() / 2;
    while (first.cursor() < at)
        first.step();
    first.saveCheckpoint(ck.path);

    core::H2PSystem sys2(fleetConfig());
    auto again = std::make_unique<control::ControlPipeline>("predictive");
    again->add(std::make_unique<control::PredictiveCoolingStage>(
        sys2.datacenter(), sys2.optimizer()));
    auto resumed = sys2.resumeSession(ck.path, trace, std::move(again));
    resumed.saveCheckpoint(ck2.path);
    const std::string saved = readFile(ck.path);
    ASSERT_FALSE(saved.empty());
    EXPECT_EQ(saved, readFile(ck2.path));

    resumed.runToCompletion();
    auto rest = resumed.finish();
    expectSameChannels(*full_result.recorder, *rest.recorder);
    full_result.recorder->saveCsv(full_csv.path);
    rest.recorder->saveCsv(rest_csv.path);
    EXPECT_EQ(readFile(full_csv.path), readFile(rest_csv.path));
    EXPECT_TRUE(
        sameBits(full_result.summary.avg_teg_w, rest.summary.avg_teg_w));
    EXPECT_TRUE(sameBits(full_result.summary.pre, rest.summary.pre));
}

// -------------------------------------- balancer work conservation

/**
 * Property: whatever the balancer does — flattening, cross-
 * circulation pulls, drains — every move is a pairwise transfer, so
 * the total submitted work equals the total scheduled work to
 * floating-point rounding. Exercised over random traces, clean and
 * faulted (a pump failure triggers a real drain mid-trace).
 */
TEST(ThermalBalancerTest, ConservesTotalWorkAcrossRandomTraces)
{
    for (bool faulted : {false, true}) {
        for (uint64_t seed : {uint64_t{3}, uint64_t{17}}) {
            core::H2PConfig cfg =
                faulted ? faultedBalancerConfig() : balancerConfig();
            core::H2PSystem sys(cfg);
            auto trace = makeTrace(seed);
            auto session =
                sys.startSession(trace, sched::Policy::TegLoadBalance);
            ASSERT_EQ(session.pipeline()->name(), "TEG_Balancer");
            while (!session.done()) {
                session.step();
                const auto &in = session.lastUtils();
                const auto &out = session.lastDecision().utils;
                double sum_in = std::accumulate(in.begin(), in.end(), 0.0);
                double sum_out =
                    std::accumulate(out.begin(), out.end(), 0.0);
                ASSERT_NEAR(sum_in, sum_out, 1e-9)
                    << "faulted=" << faulted << " seed=" << seed
                    << " step=" << session.cursor();
                for (double u : out) {
                    ASSERT_GE(u, 0.0);
                    ASSERT_LE(u, 1.0 + 1e-12);
                }
            }
        }
    }
}

// ------------------------------------------ balancer determinism

TEST(ThermalBalancerTest, RunsBitIdenticallyAcrossThreadCounts)
{
    // Every run is one serial step loop; two fresh systems must agree
    // sample for sample.
    auto trace = makeTrace(29);
    std::shared_ptr<sim::Recorder> first;
    for (int run = 0; run < 2; ++run) {
        core::H2PSystem sys(faultedBalancerConfig());
        auto result =
            sys.run(trace, sched::Policy::TegLoadBalance);
        if (!first)
            first = result.recorder;
        else
            expectSameChannels(*first, *result.recorder);
    }
}

/**
 * Save at @p at, resume into a fresh system and re-save at the same
 * cursor: the two files must be byte-identical, and the resumed run
 * must finish exactly as an uninterrupted one.
 */
void
expectResaveByteIdentical(const core::H2PConfig &cfg,
                          sched::Policy policy, size_t at)
{
    TempPath ck("control_test_balancer.ckpt");
    TempPath ck2("control_test_balancer_resaved.ckpt");
    auto trace = makeTrace(11);

    core::H2PSystem sys(cfg);
    auto full = sys.run(trace, policy);

    ASSERT_LT(at, trace.numSteps());
    auto first = sys.startSession(trace, policy);
    while (first.cursor() < at)
        first.step();
    first.saveCheckpoint(ck.path);

    // Fresh system: nothing may leak around the checkpoint file.
    core::H2PSystem sys2(cfg);
    auto resumed = sys2.resumeSession(ck.path, trace);
    EXPECT_EQ(resumed.cursor(), at);

    // The balancer stage state must round-trip byte-identically: a
    // checkpoint re-saved at the same cursor is the same file.
    resumed.saveCheckpoint(ck2.path);
    std::ifstream a(ck.path, std::ios::binary);
    std::ifstream b(ck2.path, std::ios::binary);
    std::string bytes_a((std::istreambuf_iterator<char>(a)),
                        std::istreambuf_iterator<char>());
    std::string bytes_b((std::istreambuf_iterator<char>(b)),
                        std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b);

    resumed.runToCompletion();
    auto rest = resumed.finish();
    expectSameChannels(*full.recorder, *rest.recorder);
    EXPECT_TRUE(sameBits(full.summary.pre, rest.summary.pre));
    EXPECT_TRUE(
        sameBits(full.summary.avg_teg_w, rest.summary.avg_teg_w));
}

TEST(ThermalBalancerTest, CheckpointRoundTripsStateByteIdentically)
{
    const double dt = makeTrace(11).dt();

    // Checkpoint after the scripted pump failure (1800 s), so drain
    // latches, counters and the feedback view all carry live state.
    const size_t at = static_cast<size_t>(2100.0 / dt) + 1;
    {
        SCOPED_TRACE("faulted balancer");
        expectResaveByteIdentical(faultedBalancerConfig(),
                                  sched::Policy::TegLoadBalance, at);
    }

    // The clean and faulted configurations without the balancer go
    // through the same save -> resume -> re-save loop.
    core::H2PConfig faulted = smallConfig();
    faulted.safe_mode.enabled = true;
    faulted.safe_mode.watchdog_enabled = true;
    faulted.faults.scripted.push_back(
        {1800.0, fault::FaultKind::PumpFailed, 0, 0, 0.0, 0.0});
    faulted.faults.scripted.push_back(
        {600.0, fault::FaultKind::DieSensorStuck, 1, 0, 0.0, 1800.0});
    for (sched::Policy policy :
         {sched::Policy::TegOriginal, sched::Policy::TegLoadBalance}) {
        SCOPED_TRACE(toString(policy));
        {
            SCOPED_TRACE("clean");
            expectResaveByteIdentical(smallConfig(), policy, at);
        }
        {
            SCOPED_TRACE("clean balancer");
            expectResaveByteIdentical(balancerConfig(), policy, at);
        }
        {
            SCOPED_TRACE("faulted");
            expectResaveByteIdentical(faulted, policy, at);
        }
    }
}

// ------------------------------------------------- convergence

TEST(ThermalBalancerTest, DeviationsConvergeUnderHysteresis)
{
    core::H2PConfig cfg = balancerConfig();
    cfg.balancer.hysteresis = 0.05;
    cfg.balancer.max_move = 0.25;
    cfg.balancer.max_pulls = 64;
    core::H2PSystem sys(cfg);
    auto trace = makeTrace(5);
    auto session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    control::ThermalBalancer &bal = balancerOf(session);

    size_t converged_steps = 0;
    while (!session.done()) {
        session.step();
        if (bal.stats().converged)
            ++converged_steps;
    }
    // The balancer moved real work and held the deviations inside
    // the band for the bulk of the run (the drastic trace perturbs
    // every interval; pulls re-converge it within the interval).
    EXPECT_GT(bal.stats().local_moves + bal.stats().migrations, 0u);
    EXPECT_GT(converged_steps, trace.numSteps() / 2);
    EXPECT_LE(bal.stats().max_abs_dev,
              cfg.balancer.hysteresis + 0.05);
}

// ------------------------------------------------- drain mode

TEST(ThermalBalancerTest, OperatorDrainEvacuatesCirculation)
{
    core::H2PSystem sys(balancerConfig(/*drain_rate=*/1.0));
    auto trace = makeTrace(13);
    auto session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    control::ThermalBalancer &bal = balancerOf(session);

    bal.requestDrain(2);
    const size_t budget = 8;
    for (size_t i = 0; i < budget; ++i)
        session.step();

    const control::CirculationView &row = bal.view()[2];
    EXPECT_EQ(row.mode, control::CircMode::Draining);
    // drain_rate 1.0 evacuates each interval's arrivals entirely.
    EXPECT_NEAR(row.avg_util, 0.0, 1e-12);
    EXPECT_GT(row.drained_util, 0.0);
    EXPECT_GE(bal.stats().drains_started, 1u);
    EXPECT_GE(bal.stats().drains_completed, 1u);
    EXPECT_EQ(bal.stats().active_drains, 1u);

    // The drained circulation's servers really run empty.
    const cluster::DatacenterState &last = session.lastState();
    const cluster::CirculationState &drained = last.circulations[2];
    ASSERT_EQ(drained.count, sys.datacenter().circulationSize(2));
    for (size_t i = drained.offset; i < drained.offset + drained.count;
         ++i)
        EXPECT_NEAR(last.servers.util[i], 0.0, 1e-12);

    // Releasing the drain returns the circulation to service.
    bal.cancelDrain(2);
    session.step();
    EXPECT_NE(bal.view()[2].mode, control::CircMode::Draining);
    EXPECT_EQ(bal.stats().active_drains, 0u);
}

TEST(ThermalBalancerTest, PumpFailureDrainsWhileSafeModeHolds)
{
    core::H2PSystem sys(faultedBalancerConfig());
    auto trace = makeTrace(11);
    auto session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    control::ThermalBalancer &bal = balancerOf(session);

    // Step past the scripted pump failure (1800 s) plus a few
    // intervals for the drain to engage and evacuate.
    const size_t past =
        static_cast<size_t>(1800.0 / trace.dt()) + 4;
    ASSERT_LT(past, trace.numSteps());
    while (session.cursor() < past)
        session.step();

    EXPECT_EQ(bal.view()[0].mode, control::CircMode::Draining);
    EXPECT_NEAR(bal.view()[0].avg_util, 0.0, 1e-12);
    EXPECT_GE(bal.stats().drains_started, 1u);

    // The drain holds for the rest of the run (hardware stays dead)
    // and the run still finishes cleanly under safe-mode control.
    session.runToCompletion();
    EXPECT_EQ(bal.view()[0].mode, control::CircMode::Draining);
    auto r = session.finish();
    EXPECT_GT(r.summary.fault_events, 0u);
    // The surviving circulations carried the work.
    EXPECT_GT(r.summary.avg_teg_w, 0.0);
}

// ------------------------------------------------- watchdog

TEST(ThermalBalancerTest, NonConvergenceFailsAsConfigError)
{
    core::H2PConfig cfg = balancerConfig();
    // A cap too small to ever flatten the drastic trace under an
    // impossibly tight band: the watchdog must fail the run with
    // exact attribution instead of letting it churn forever.
    cfg.balancer.max_move = 1e-6;
    cfg.balancer.hysteresis = 1e-9;
    cfg.balancer.max_stale_steps = 3;
    core::H2PSystem sys(cfg);
    auto trace = makeTrace(19);
    auto session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    try {
        session.runToCompletion();
        FAIL() << "expected the convergence watchdog to throw";
    } catch (const RunError &e) {
        EXPECT_EQ(e.failure().kind, FailureKind::ConfigError);
        EXPECT_EQ(e.failure().stage, "balancer");
        EXPECT_NE(e.failure().step, RunFailure::kNoStep);
    }
}

TEST(ThermalBalancerTest, RejectsInvalidParams)
{
    // Params are validated when the balancer stage is built, i.e.
    // at session start — constructing the system just stores them.
    auto expectRejected = [](core::H2PConfig cfg) {
        core::H2PSystem sys(cfg);
        auto trace = workload::TraceGenerator(1).generate(
            workload::TraceGenParams::forProfile(
                workload::TraceProfile::Common),
            cfg.datacenter.num_servers, 600.0);
        EXPECT_THROW(
            sys.startSession(trace, sched::Policy::TegLoadBalance),
            Error);
    };
    core::H2PConfig cfg = balancerConfig();
    cfg.balancer.max_move = -0.1;
    expectRejected(cfg);
    cfg = balancerConfig();
    cfg.balancer.drain_rate = 0.0;
    expectRejected(cfg);
    cfg = balancerConfig();
    cfg.balancer.hysteresis = -1.0;
    expectRejected(cfg);
}

} // namespace
} // namespace h2p
