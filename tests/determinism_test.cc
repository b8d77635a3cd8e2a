/**
 * @file
 * Reproducibility and model-consistency tests: bit-identical repeated
 * runs, the transient/steady-state agreement of the thermal stack,
 * and mutable RC edges.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/h2p_system.h"
#include "core/transient_circulation.h"
#include "fault/fault_injector.h"
#include "sched/cooling_optimizer.h"
#include "sim/channels.h"
#include "tests/support/fields.h"
#include "thermal/rc_network.h"
#include "util/error.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace {

// ----------------------------------------------------------- determinism

TEST(DeterminismTest, RepeatedRunsAreBitIdentical)
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 60;
    cfg.datacenter.servers_per_circulation = 20;
    core::H2PSystem sys(cfg);
    workload::TraceGenerator gen(77);
    auto trace = gen.generate(
        workload::TraceGenParams::forProfile(
            workload::TraceProfile::Drastic),
        60, 2.0 * 3600.0);

    auto a = sys.run(trace, sched::Policy::TegLoadBalance);
    auto b = sys.run(trace, sched::Policy::TegLoadBalance);
    EXPECT_EQ(test::firstDifferingField(a.summary, b.summary), "");
    const auto &sa = a.recorder->series(sim::channels::kTegWPerServer);
    const auto &sb = b.recorder->series(sim::channels::kTegWPerServer);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i)
        EXPECT_DOUBLE_EQ(sa.at(i), sb.at(i));
}

TEST(DeterminismTest, TwoIndependentSystemsAgree)
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 40;
    cfg.datacenter.servers_per_circulation = 20;
    core::H2PSystem s1(cfg), s2(cfg);
    workload::TraceGenerator gen(5);
    auto trace = gen.generate(workload::TraceGenParams{}, 40, 3600.0);
    EXPECT_DOUBLE_EQ(
        s1.run(trace, sched::Policy::TegOriginal).summary.avg_teg_w,
        s2.run(trace, sched::Policy::TegOriginal).summary.avg_teg_w);
}

TEST(DeterminismTest, GoldenHeadlineValues)
{
    // Pin the calibrated model: any accidental drift in a device
    // constant shows up here before it silently changes every bench.
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 100;
    cfg.datacenter.servers_per_circulation = 25;
    core::H2PSystem sys(cfg);
    workload::TraceGenerator gen(2020);
    auto trace = gen.generateProfile(
        workload::TraceProfile::Common, 100);
    auto lb = sys.run(trace, sched::Policy::TegLoadBalance);
    // Loose enough to survive benign refactors, tight enough to
    // catch calibration drift.
    EXPECT_NEAR(lb.summary.avg_teg_w, 3.95, 0.25);
    EXPECT_NEAR(lb.summary.pre, 0.122, 0.02);
    EXPECT_NEAR(lb.summary.avg_t_in_c, 54.1, 1.5);
}

// --------------------------------------------- transient/steady agreement

TEST(TransientCirculationTest, ConvergesToSteadyModel)
{
    core::TransientCirculation loop(4);
    std::vector<double> utils{0.2, 0.5, 0.8, 0.3};
    cluster::CoolingSetting setting{48.0, 60.0};
    loop.advance(utils, setting, 3600.0); // many time constants
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(loop.dieTemp(i),
                    loop.steadyDieTemp(utils[i], setting), 0.05)
            << "server " << i;
    }
}

TEST(TransientCirculationTest, RespondsToSettingChanges)
{
    core::TransientCirculation loop(2);
    std::vector<double> utils{0.5, 0.5};
    loop.advance(utils, {40.0, 60.0}, 3600.0);
    double cool = loop.maxDieTemp();
    loop.advance(utils, {50.0, 60.0}, 3600.0);
    double warm = loop.maxDieTemp();
    EXPECT_GT(warm, cool + 5.0);
}

TEST(TransientCirculationTest, FlowChangeRetunesPlates)
{
    core::TransientCirculation loop(1);
    std::vector<double> utils{1.0};
    loop.advance(utils, {45.0, 20.0}, 3600.0);
    double slow_flow = loop.dieTemp(0);
    loop.advance(utils, {45.0, 100.0}, 3600.0);
    double fast_flow = loop.dieTemp(0);
    EXPECT_LT(fast_flow, slow_flow - 2.0);
    EXPECT_NEAR(fast_flow,
                loop.steadyDieTemp(1.0, {45.0, 100.0}), 0.05);
}

TEST(TransientCirculationTest, LagBehindStepChange)
{
    // Right after a utilization step the transient must lag the new
    // steady state (that's the point of the validation bench).
    core::TransientCirculation loop(1);
    loop.advance({0.1}, {45.0, 60.0}, 3600.0);
    loop.advance({1.0}, {45.0, 60.0}, 10.0); // 10 s after the step
    double steady = loop.steadyDieTemp(1.0, {45.0, 60.0});
    EXPECT_LT(loop.dieTemp(0), steady - 1.0);
}

TEST(TransientCirculationTest, RejectsMisuse)
{
    EXPECT_THROW(core::TransientCirculation(0), Error);
    core::TransientCirculation loop(2);
    EXPECT_THROW(loop.advance({0.5}, {45.0, 60.0}, 10.0), Error);
    EXPECT_THROW(loop.advance({0.5, 0.5}, {45.0, 60.0}, 0.0), Error);
    EXPECT_THROW(loop.dieTemp(2), Error);
}

// -------------------------------------------------------- RC edge updates

TEST(RcEdgeTest, SetEdgeResistanceChangesSteadyState)
{
    thermal::RcNetwork net;
    auto b = net.addBoundary("b", 20.0);
    auto n = net.addNode("n", 50.0, 20.0);
    size_t edge = net.connect(n, b, 1.0);
    net.setPower(n, 10.0);
    net.step(2000.0);
    EXPECT_NEAR(net.temperature(n), 30.0, 0.05);
    net.setEdgeResistance(edge, 2.0);
    net.step(4000.0);
    EXPECT_NEAR(net.temperature(n), 40.0, 0.05);
    EXPECT_THROW(net.setEdgeResistance(99, 1.0), Error);
    EXPECT_THROW(net.setEdgeResistance(edge, 0.0), Error);
}

// ------------------------------------------------- fault-timeline seeds

namespace {

fault::FaultScenarioParams
sampledScenario(uint64_t seed)
{
    fault::FaultScenarioParams p;
    p.seed = seed;
    p.pump_degrade_per_circ_year = 20.0;
    p.teg_open_per_server_year = 2.0;
    p.chiller_outages_per_year = 30.0;
    p.die_sensor_faults_per_circ_year = 15.0;
    return p;
}

} // namespace

TEST(FaultDeterminismTest, SameSeedGivesIdenticalTimeline)
{
    cluster::DatacenterParams dp;
    dp.num_servers = 40;
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);

    double horizon = fault::FaultInjector::kSecondsPerYear / 4.0;
    fault::FaultInjector a(sampledScenario(9), dc, horizon);
    fault::FaultInjector b(sampledScenario(9), dc, horizon);

    ASSERT_GT(a.events().size(), 0u);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.events()[i].time_s, b.events()[i].time_s);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].circulation, b.events()[i].circulation);
        EXPECT_EQ(a.events()[i].server, b.events()[i].server);
        EXPECT_DOUBLE_EQ(a.events()[i].magnitude,
                         b.events()[i].magnitude);
        EXPECT_DOUBLE_EQ(a.events()[i].duration_s,
                         b.events()[i].duration_s);
    }
}

TEST(FaultDeterminismTest, DifferentSeedsGiveDifferentTimelines)
{
    cluster::DatacenterParams dp;
    dp.num_servers = 40;
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);

    double horizon = fault::FaultInjector::kSecondsPerYear / 4.0;
    fault::FaultInjector a(sampledScenario(9), dc, horizon);
    fault::FaultInjector b(sampledScenario(10), dc, horizon);

    bool differs = a.events().size() != b.events().size();
    for (size_t i = 0; !differs && i < a.events().size(); ++i)
        differs = a.events()[i].time_s != b.events()[i].time_s;
    EXPECT_TRUE(differs);
}

TEST(FaultDeterminismTest, RepeatedResilientRunsAreBitIdentical)
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 40;
    cfg.datacenter.servers_per_circulation = 20;
    cfg.faults.seed = 31;
    cfg.faults.pump_degrade_per_circ_year = 3000.0;
    cfg.faults.die_sensor_faults_per_circ_year = 3000.0;
    cfg.safe_mode.enabled = true;
    core::H2PSystem sys(cfg);

    workload::TraceGenerator gen(12);
    auto trace = gen.generate(
        workload::TraceGenParams::forProfile(
            workload::TraceProfile::Drastic),
        40, 4.0 * 3600.0);

    auto a = sys.run(trace, sched::Policy::TegLoadBalance).summary;
    auto b = sys.run(trace, sched::Policy::TegLoadBalance).summary;
    EXPECT_GT(a.fault_events, 0u);
    EXPECT_EQ(test::firstDifferingField(a, b), "");

    // A different fault seed must change the outcome.
    core::H2PConfig other = cfg;
    other.faults.seed = 32;
    core::H2PSystem sys2(other);
    auto c = sys2.run(trace, sched::Policy::TegLoadBalance).summary;
    EXPECT_NE(a.fault_events, c.fault_events);
}

} // namespace
} // namespace h2p
