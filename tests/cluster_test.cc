/**
 * @file
 * Unit tests for the cluster module: server, circulation, datacenter.
 */

#include <gtest/gtest.h>

#include "cluster/datacenter.h"
#include "cluster/server.h"
#include "hydraulic/pump.h"
#include "tests/support/evaluate.h"
#include "tests/support/server_view.h"
#include "util/error.h"

namespace h2p {
namespace cluster {
namespace {

// ---------------------------------------------------------------- server

TEST(ServerTest, StateConsistentWithUnderlyingModels)
{
    Server server;
    ServerState s = server.evaluate(0.5, 50.0, 45.0, 20.0);
    EXPECT_DOUBLE_EQ(s.cpu_power_w, server.powerModel().power(0.5));
    EXPECT_DOUBLE_EQ(
        s.die_temp_c,
        server.thermalModel().dieTemperature(s.cpu_power_w, 50.0, 45.0));
    EXPECT_DOUBLE_EQ(
        s.outlet_c, server.thermalModel().outletTemperature(
                        s.cpu_power_w, 50.0, 45.0));
    EXPECT_DOUBLE_EQ(
        s.teg_power_w,
        server.tegModule().powerFromTemps(s.outlet_c, 20.0, 50.0));
}

TEST(ServerTest, TegPowerGrowsWithInletTemperature)
{
    Server server;
    double prev = -1.0;
    for (double t_in : {30.0, 40.0, 45.0, 50.0}) {
        ServerState s = server.evaluate(0.3, 50.0, t_in, 20.0);
        EXPECT_GT(s.teg_power_w, prev);
        prev = s.teg_power_w;
    }
}

TEST(ServerTest, SafetyFlagTracksVendorLimit)
{
    Server server;
    EXPECT_TRUE(server.evaluate(1.0, 20.0, 45.0, 20.0).safe);
    EXPECT_FALSE(server.evaluate(1.0, 20.0, 55.0, 20.0).safe);
}

TEST(ServerTest, TwelveTegsByDefault)
{
    Server server;
    EXPECT_EQ(server.tegModule().count(), 12u);
}

// ----------------------------------------------------------- circulation

TEST(CirculationTest, AggregatesAreSums)
{
    Datacenter circ = test::oneLoop(3);
    CoolingSetting setting{45.0, 50.0};
    test::LoopState cs = test::evaluate(circ, {0.1, 0.5, 0.9}, setting);
    ASSERT_EQ(cs.servers.size(), 3u);
    double cpu = 0, teg = 0, heat = 0;
    for (size_t i = 0; i < cs.servers.size(); ++i) {
        ServerState s = test::serverAt(cs.servers, i);
        cpu += s.cpu_power_w;
        teg += s.teg_power_w;
        heat += s.heat_w;
    }
    EXPECT_NEAR(cs.cpu_power_w, cpu, 1e-9);
    EXPECT_NEAR(cs.teg_power_w, teg, 1e-9);
    EXPECT_NEAR(cs.heat_w, heat, 1e-9);
}

TEST(CirculationTest, MaxDieIsTheHottestServer)
{
    Datacenter circ = test::oneLoop(3);
    test::LoopState cs = test::evaluate(circ, {0.1, 0.9, 0.5}, {45.0, 50.0});
    EXPECT_DOUBLE_EQ(cs.max_die_c, cs.servers.die_temp_c[1]);
}

TEST(CirculationTest, ReturnTempIsMeanOfOutlets)
{
    Datacenter circ = test::oneLoop(2);
    test::LoopState cs = test::evaluate(circ, {0.2, 0.8}, {40.0, 20.0});
    EXPECT_NEAR(cs.return_c,
                0.5 * (cs.servers.outlet_c[0] + cs.servers.outlet_c[1]),
                1e-12);
}

TEST(CirculationTest, AllSafeReflectsEveryServer)
{
    Datacenter circ = test::oneLoop(2);
    EXPECT_TRUE(test::evaluate(circ, {0.1, 0.2}, {40.0, 50.0}).all_safe);
    EXPECT_FALSE(test::evaluate(circ, {0.1, 1.0}, {55.0, 20.0}).all_safe);
}

TEST(CirculationTest, PumpPowerGrowsCubicallyWithFlow)
{
    Datacenter circ = test::oneLoop(10);
    std::vector<double> utils(10, 0.3);
    double p20 = test::evaluate(circ, utils, {45.0, 20.0}).pump_power_w;
    double p100 = test::evaluate(circ, utils, {45.0, 100.0}).pump_power_w;
    // Strip the constant standby floor: the dynamic part follows the
    // cubic affinity law, so 5x the flow costs 125x the shaft power.
    double floor = 10.0 * hydraulic::Pump().params().idle_power_w;
    EXPECT_NEAR((p100 - floor) / (p20 - floor), 125.0, 1.0);
}

TEST(CirculationTest, RejectsWrongUtilCount)
{
    Datacenter circ = test::oneLoop(2);
    EXPECT_THROW(test::evaluate(circ, {0.5}, {45.0, 50.0}), Error);
    EXPECT_THROW(test::oneLoop(0), Error);
}

// ------------------------------------------------------------ datacenter

TEST(DatacenterTest, PartitionCoversAllServers)
{
    DatacenterParams p;
    p.num_servers = 1000;
    p.servers_per_circulation = 50;
    Datacenter dc(p);
    EXPECT_EQ(dc.numCirculations(), 20u);
    size_t total = 0;
    for (size_t i = 0; i < dc.numCirculations(); ++i)
        total += dc.circulationSize(i);
    EXPECT_EQ(total, 1000u);
}

TEST(DatacenterTest, PartialLastCirculation)
{
    DatacenterParams p;
    p.num_servers = 105;
    p.servers_per_circulation = 50;
    Datacenter dc(p);
    EXPECT_EQ(dc.numCirculations(), 3u);
    EXPECT_EQ(dc.circulationSize(2), 5u);
}

TEST(DatacenterTest, CirculationUtilsSliceCorrectly)
{
    DatacenterParams p;
    p.num_servers = 6;
    p.servers_per_circulation = 2;
    Datacenter dc(p);
    std::vector<double> utils{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
    std::vector<CoolingSetting> settings(3, {45.0, 50.0});
    DatacenterState st;
    dc.evaluateInto(utils, settings, nullptr, st);
    ASSERT_EQ(st.circulations.size(), 3u);
    EXPECT_EQ(st.circulations[1].offset, 2u);
    EXPECT_EQ(st.circulations[1].count, 2u);
    EXPECT_EQ(st.servers.util, utils);
    EXPECT_THROW(dc.evaluateInto({0.1}, settings, nullptr, st), Error);
}

TEST(DatacenterTest, EvaluateSumsCirculations)
{
    DatacenterParams p;
    p.num_servers = 4;
    p.servers_per_circulation = 2;
    Datacenter dc(p);
    std::vector<double> utils{0.2, 0.4, 0.6, 0.8};
    std::vector<CoolingSetting> settings{{45.0, 50.0}, {40.0, 30.0}};
    DatacenterState st = test::evaluateFleet(dc, utils, settings);
    ASSERT_EQ(st.circulations.size(), 2u);
    EXPECT_NEAR(st.teg_power_w, st.circulations[0].teg_power_w +
                                    st.circulations[1].teg_power_w,
                1e-9);
    EXPECT_NEAR(st.cpu_power_w, st.circulations[0].cpu_power_w +
                                    st.circulations[1].cpu_power_w,
                1e-9);
    EXPECT_GT(st.plant_power_w, 0.0);
}

TEST(DatacenterTest, ColderSupplyRaisesPlantPower)
{
    DatacenterParams p;
    p.num_servers = 10;
    p.servers_per_circulation = 10;
    Datacenter dc(p);
    std::vector<double> utils(10, 0.5);
    double warm =
        test::evaluateFleet(dc, utils, {{45.0, 50.0}}).plant_power_w;
    double cold =
        test::evaluateFleet(dc, utils, {{10.0, 50.0}}).plant_power_w;
    EXPECT_GT(cold, warm);
}

TEST(DatacenterTest, TegPowerPerServerHelper)
{
    DatacenterState st;
    st.teg_power_w = 400.0;
    EXPECT_DOUBLE_EQ(st.tegPowerPerServer(100), 4.0);
}

TEST(DatacenterTest, RejectsWrongSettingsCount)
{
    DatacenterParams p;
    p.num_servers = 4;
    p.servers_per_circulation = 2;
    Datacenter dc(p);
    std::vector<double> utils(4, 0.5);
    EXPECT_THROW(test::evaluateFleet(dc, utils, {{45.0, 50.0}}), Error);
}

} // namespace
} // namespace cluster
} // namespace h2p
