/**
 * @file
 * Bit-identity suite for the SoA step kernel (cluster::ServerBlock).
 *
 * The kernel's contract is exact: evaluating N servers through the
 * vectorized block — clean or faulted — must reproduce the scalar
 * Server::evaluate chain double for double. The reference here IS
 * that scalar path (Server stays in production for look-up-space
 * construction), driven with the same flow semantics Datacenter
 * applies per circulation, and every comparison is on raw bits.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/datacenter.h"
#include "cluster/server.h"
#include "cluster/server_block.h"
#include "core/h2p_system.h"
#include "fault/fault_injector.h"
#include "hydraulic/plant.h"
#include "hydraulic/pump.h"
#include "tests/support/evaluate.h"
#include "util/error.h"
#include "workload/trace_gen.h"

namespace {

using namespace h2p;
using namespace h2p::cluster;

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void
expectSameServerState(const ServerState &ref, const ServerState &got,
                      size_t i)
{
    EXPECT_TRUE(sameBits(ref.util, got.util)) << "server " << i;
    EXPECT_TRUE(sameBits(ref.cpu_power_w, got.cpu_power_w))
        << "server " << i;
    EXPECT_TRUE(sameBits(ref.die_temp_c, got.die_temp_c))
        << "server " << i;
    EXPECT_TRUE(sameBits(ref.outlet_c, got.outlet_c)) << "server " << i;
    EXPECT_TRUE(sameBits(ref.heat_w, got.heat_w)) << "server " << i;
    EXPECT_TRUE(sameBits(ref.teg_power_w, got.teg_power_w))
        << "server " << i;
    EXPECT_TRUE(sameBits(ref.teg_power_lost_w, got.teg_power_lost_w))
        << "server " << i;
    EXPECT_EQ(ref.faulted, got.faulted) << "server " << i;
    EXPECT_EQ(ref.safe, got.safe) << "server " << i;
}

/**
 * The scalar reference for one circulation: Server::evaluate per
 * lane with Datacenter's per-circulation flow semantics, reductions
 * in strict index order — exactly the pre-SoA evaluation.
 */
struct RefCirculation
{
    std::vector<ServerState> servers;
    double cpu_power_w = 0.0;
    double teg_power_w = 0.0;
    double teg_power_lost_w = 0.0;
    double heat_w = 0.0;
    double return_c = 0.0;
    double max_die_c = 0.0;
    double delivered_flow_lph = 0.0;
    double pump_power_w = 0.0;
    size_t faulted_servers = 0;
    bool all_safe = true;
};

/**
 * @p utils through @p dc's server model at @p setting and @p dc's
 * cold source. The pump derate and the stagnant-flow floor apply only
 * under a non-clean @p health, as in Datacenter: null and clean
 * health are the healthy evaluation at the commanded flow.
 */
RefCirculation
refEvaluate(const Datacenter &dc, const std::vector<double> &utils,
            const CoolingSetting &setting,
            const CirculationHealth *health)
{
    const Server server(dc.params().server);
    const double t_cold_c = dc.params().cold_source_c;
    const bool degraded = health != nullptr && !health->clean();
    RefCirculation ref;
    ref.delivered_flow_lph = setting.flow_lph;
    double flow = setting.flow_lph;
    if (degraded) {
        ref.delivered_flow_lph =
            setting.flow_lph * health->pump_flow_factor;
        flow = std::max(ref.delivered_flow_lph,
                        Datacenter::kStagnantFlowLph);
    }
    ref.pump_power_w =
        hydraulic::Pump(dc.params().pump).power(ref.delivered_flow_lph) *
        static_cast<double>(utils.size());

    double sum_outlet = 0.0;
    for (size_t i = 0; i < utils.size(); ++i) {
        ServerState s;
        if (degraded && health->hasServerLanes())
            s = server.evaluate(utils[i], flow, setting.t_in_c, t_cold_c,
                                health->server(i));
        else if (degraded)
            s = server.evaluate(utils[i], flow, setting.t_in_c, t_cold_c,
                                ServerHealth{});
        else
            s = server.evaluate(utils[i], flow, setting.t_in_c, t_cold_c);
        ref.cpu_power_w += s.cpu_power_w;
        ref.teg_power_w += s.teg_power_w;
        ref.teg_power_lost_w += s.teg_power_lost_w;
        ref.heat_w += s.heat_w;
        sum_outlet += s.outlet_c;
        ref.max_die_c = std::max(ref.max_die_c, s.die_temp_c);
        ref.all_safe = ref.all_safe && s.safe;
        if (s.faulted)
            ++ref.faulted_servers;
        ref.servers.push_back(s);
    }
    ref.return_c = sum_outlet / static_cast<double>(utils.size());
    if (degraded && health->pump_flow_factor < 1.0)
        ref.faulted_servers = utils.size();
    return ref;
}

/** @p got and its segment of @p servers against @p ref, bitwise. */
void
expectSameCirculation(const RefCirculation &ref,
                      const CirculationState &got,
                      const ServerStateBlock &servers)
{
    ASSERT_EQ(ref.servers.size(), got.count);
    ASSERT_LE(got.offset + got.count, servers.size());
    for (size_t i = 0; i < got.count; ++i)
        expectSameServerState(ref.servers[i], servers[got.offset + i],
                              got.offset + i);
    EXPECT_TRUE(sameBits(ref.cpu_power_w, got.cpu_power_w));
    EXPECT_TRUE(sameBits(ref.teg_power_w, got.teg_power_w));
    EXPECT_TRUE(sameBits(ref.teg_power_lost_w, got.teg_power_lost_w));
    EXPECT_TRUE(sameBits(ref.heat_w, got.heat_w));
    EXPECT_TRUE(sameBits(ref.return_c, got.return_c));
    EXPECT_TRUE(sameBits(ref.max_die_c, got.max_die_c));
    EXPECT_TRUE(
        sameBits(ref.delivered_flow_lph, got.delivered_flow_lph));
    EXPECT_TRUE(sameBits(ref.pump_power_w, got.pump_power_w));
    EXPECT_EQ(ref.faulted_servers, got.faulted_servers);
    EXPECT_EQ(ref.all_safe, got.all_safe);
}

void
expectSameCirculation(const RefCirculation &ref, const test::LoopState &got)
{
    expectSameCirculation(ref, got, got.servers);
}

std::vector<double>
spreadUtils(size_t n)
{
    std::vector<double> utils(n);
    for (size_t i = 0; i < n; ++i)
        utils[i] = 0.03 + 0.94 * static_cast<double>(i) /
                              static_cast<double>(std::max<size_t>(
                                  1, n - 1));
    return utils;
}

/**
 * Every circulation of @p dc against the scalar reference on its
 * segment of the fleet block, and the datacenter totals against the
 * reference circulations summed in circulation order.
 */
void
expectFleetMatchesReference(const Datacenter &dc,
                            const std::vector<double> &utils,
                            const std::vector<CoolingSetting> &settings,
                            const DatacenterHealth *health)
{
    DatacenterState got;
    dc.evaluateInto(utils, settings, health, got);
    ASSERT_EQ(got.circulations.size(), dc.numCirculations());
    ASSERT_EQ(got.servers.size(), dc.numServers());

    const bool clean = health == nullptr || health->clean();
    const hydraulic::FacilityPlant plant(dc.params().plant);
    RefCirculation total;
    size_t offset = 0;
    for (size_t c = 0; c < dc.numCirculations(); ++c) {
        SCOPED_TRACE("circulation " + std::to_string(c));
        const size_t n = dc.circulationSize(c);
        const CirculationState &cs = got.circulations[c];
        EXPECT_EQ(cs.offset, offset);

        CoolingSetting setting = settings[c];
        const CirculationHealth *ch = nullptr;
        if (!clean) {
            setting.t_in_c =
                plant.achievableSupply(setting.t_in_c, health->plant);
            if (!health->circulations.empty())
                ch = &health->circulations[c];
        }
        EXPECT_TRUE(sameBits(cs.setting.t_in_c, setting.t_in_c));

        const std::vector<double> segment(utils.begin() + offset,
                                          utils.begin() + offset + n);
        const RefCirculation ref = refEvaluate(dc, segment, setting, ch);
        expectSameCirculation(ref, cs, got.servers);

        total.cpu_power_w += ref.cpu_power_w;
        total.teg_power_w += ref.teg_power_w;
        total.teg_power_lost_w += ref.teg_power_lost_w;
        total.heat_w += ref.heat_w;
        total.pump_power_w += ref.pump_power_w;
        total.faulted_servers += ref.faulted_servers;
        total.all_safe = total.all_safe && ref.all_safe;
        offset += n;
    }
    EXPECT_EQ(offset, dc.numServers());
    EXPECT_TRUE(sameBits(total.cpu_power_w, got.cpu_power_w));
    EXPECT_TRUE(sameBits(total.teg_power_w, got.teg_power_w));
    EXPECT_TRUE(sameBits(total.teg_power_lost_w, got.teg_power_lost_w));
    EXPECT_TRUE(sameBits(total.heat_w, got.heat_w));
    EXPECT_TRUE(sameBits(total.pump_power_w, got.pump_power_w));
    EXPECT_EQ(total.faulted_servers, got.faulted_servers);
    EXPECT_EQ(total.all_safe, got.all_safe);
}

// ------------------------------------------------- clean bit identity

TEST(SoaKernelTest, CleanMatchesScalarServerBitwise)
{
    const size_t n = 7;
    Datacenter loop = test::oneLoop(n);
    std::vector<double> utils = spreadUtils(n);

    for (const CoolingSetting &setting :
         {CoolingSetting{45.0, 50.0}, CoolingSetting{30.0, 12.0},
          CoolingSetting{55.0, 118.0}}) {
        test::LoopState got = test::evaluate(loop, utils, setting);
        RefCirculation ref = refEvaluate(loop, utils, setting, nullptr);
        expectSameCirculation(ref, got);
    }
}

TEST(SoaKernelTest, CleanHealthMatchesNullHealthBitwise)
{
    const size_t n = 5;
    Datacenter loop = test::oneLoop(n);
    std::vector<double> utils = spreadUtils(n);
    CoolingSetting setting{45.0, 50.0};

    CirculationHealth clean_health; // default: pristine loop
    test::LoopState with =
        test::evaluate(loop, utils, setting, &clean_health);
    test::LoopState without = test::evaluate(loop, utils, setting);
    ASSERT_EQ(with.servers.size(), without.servers.size());
    for (size_t i = 0; i < n; ++i)
        expectSameServerState(without.servers[i], with.servers[i], i);
    EXPECT_TRUE(sameBits(without.teg_power_w, with.teg_power_w));
    EXPECT_EQ(with.faulted_servers, 0u);
}

TEST(SoaKernelTest, LowCommandedFlowFloorsOnlyUnderNonCleanHealth)
{
    // Below the stagnant-flow floor the healthy evaluation keeps the
    // commanded flow; only a non-clean loop health floors the thermal
    // flow.
    const size_t n = 4;
    Datacenter loop = test::oneLoop(n);
    std::vector<double> utils = spreadUtils(n);
    const CoolingSetting setting{45.0, 1.5};
    ASSERT_LT(setting.flow_lph, Datacenter::kStagnantFlowLph);

    const CirculationHealth clean_health;
    CirculationHealth fouled;
    fouled.resizeServers(n);
    fouled.fouling_kpw[2] = 0.1;

    test::LoopState null_got = test::evaluate(loop, utils, setting);
    test::LoopState clean_got =
        test::evaluate(loop, utils, setting, &clean_health);
    test::LoopState fouled_got =
        test::evaluate(loop, utils, setting, &fouled);
    expectSameCirculation(refEvaluate(loop, utils, setting, nullptr),
                          null_got);
    expectSameCirculation(
        refEvaluate(loop, utils, setting, &clean_health), clean_got);
    expectSameCirculation(refEvaluate(loop, utils, setting, &fouled),
                          fouled_got);

    for (size_t i = 0; i < n; ++i)
        expectSameServerState(null_got.servers[i], clean_got.servers[i],
                              i);
    // The fouled loop's clean lanes run at the floored flow: cooler
    // than at the commanded 1.5 L/H, while the pump delivers 1.5.
    EXPECT_LT(fouled_got.servers[0].die_temp_c,
              null_got.servers[0].die_temp_c);
    EXPECT_TRUE(sameBits(fouled_got.delivered_flow_lph, 1.5));
    EXPECT_EQ(fouled_got.faulted_servers, 1u);

    // A clean loop keeps the commanded flow also when the fouled loop
    // next to it makes the datacenter's health non-clean.
    DatacenterParams p;
    p.num_servers = 2 * n;
    p.servers_per_circulation = n;
    const Datacenter two_loops(p);
    const std::vector<CoolingSetting> settings(2, setting);
    DatacenterHealth health;
    health.circulations = {clean_health, fouled};
    expectFleetMatchesReference(two_loops, spreadUtils(2 * n), settings,
                                &health);
}

// ----------------------------------------------- faulted bit identity

TEST(SoaKernelTest, FoulingLanesMatchScalarServerBitwise)
{
    const size_t n = 6;
    Datacenter loop = test::oneLoop(n);
    std::vector<double> utils = spreadUtils(n);
    CoolingSetting setting{45.0, 50.0};

    CirculationHealth health;
    health.resizeServers(n);
    health.fouling_kpw[1] = 0.08;
    health.fouling_kpw[4] = 0.25;

    test::LoopState got = test::evaluate(loop, utils, setting, &health);
    RefCirculation ref = refEvaluate(loop, utils, setting, &health);
    expectSameCirculation(ref, got);
    EXPECT_EQ(got.faulted_servers, 2u);
}

TEST(SoaKernelTest, TegOpenAndShortLanesMatchScalarServerBitwise)
{
    const size_t n = 6;
    Datacenter loop = test::oneLoop(n);
    std::vector<double> utils = spreadUtils(n);
    CoolingSetting setting{48.0, 40.0};

    CirculationHealth health;
    health.resizeServers(n);
    health.teg_open[0] = 1;
    health.tegs_shorted[2] = 3;
    health.tegs_shorted[5] = 100; // more shorts than devices

    test::LoopState got = test::evaluate(loop, utils, setting, &health);
    RefCirculation ref = refEvaluate(loop, utils, setting, &health);
    expectSameCirculation(ref, got);

    // The open string harvests nothing; its healthy output is lost.
    EXPECT_TRUE(sameBits(got.servers[0].teg_power_w, 0.0));
    EXPECT_GT(got.servers[0].teg_power_lost_w, 0.0);
}

TEST(SoaKernelTest, DegradedPumpMatchesScalarServerBitwise)
{
    const size_t n = 4;
    Datacenter loop = test::oneLoop(n);
    std::vector<double> utils = spreadUtils(n);
    CoolingSetting setting{45.0, 50.0};

    for (double factor : {0.4, 0.0}) {
        CirculationHealth health;
        health.pump_flow_factor = factor;
        test::LoopState got = test::evaluate(loop, utils, setting, &health);
        RefCirculation ref = refEvaluate(loop, utils, setting, &health);
        expectSameCirculation(ref, got);
        // A degraded pump faults the whole loop.
        EXPECT_EQ(got.faulted_servers, n);
    }
}

TEST(SoaKernelTest, MixedFaultsOnOneLaneMatchScalar)
{
    const size_t n = 3;
    Datacenter loop = test::oneLoop(n);
    std::vector<double> utils = spreadUtils(n);
    CoolingSetting setting{45.0, 50.0};

    CirculationHealth health;
    health.pump_flow_factor = 0.6;
    health.resizeServers(n);
    health.fouling_kpw[1] = 0.1;
    health.teg_open[1] = 1;
    health.tegs_shorted[2] = 2;

    test::LoopState got = test::evaluate(loop, utils, setting, &health);
    RefCirculation ref = refEvaluate(loop, utils, setting, &health);
    expectSameCirculation(ref, got);
}

TEST(SoaKernelTest, RejectsBadUtilAndNegativeFouling)
{
    const size_t n = 3;
    Datacenter loop = test::oneLoop(n);
    CoolingSetting setting{45.0, 50.0};

    EXPECT_THROW(test::evaluate(loop, {0.5, 1.5, 0.5}, setting), Error);
    EXPECT_THROW(test::evaluate(loop, {0.5, -0.1, 0.5}, setting), Error);

    // Negative fouling only rejects on a lane that is degraded some
    // other way — mirroring ServerHealth::clean(), which treats
    // non-positive fouling as pristine.
    CirculationHealth negative_clean;
    negative_clean.pump_flow_factor = 0.9; // forces the faulted path
    negative_clean.resizeServers(n);
    negative_clean.fouling_kpw[1] = -0.5;
    EXPECT_NO_THROW(
        test::evaluate(loop, {0.5, 0.5, 0.5}, setting, &negative_clean));

    CirculationHealth negative_faulted = negative_clean;
    negative_faulted.teg_open[1] = 1;
    EXPECT_THROW(
        test::evaluate(loop, {0.5, 0.5, 0.5}, setting, &negative_faulted),
        Error);
}

// --------------------------------------------- randomized property

TEST(SoaKernelTest, RandomizedSweepMatchesScalarBitwise)
{
    std::mt19937 rng(1234);
    std::uniform_real_distribution<double> util_d(0.0, 1.0);
    std::uniform_real_distribution<double> tin_d(28.0, 55.0);
    std::uniform_real_distribution<double> flow_d(8.0, 120.0);
    std::uniform_real_distribution<double> cold_d(15.0, 25.0);
    std::uniform_real_distribution<double> fouling_d(0.0, 0.3);
    std::uniform_real_distribution<double> pump_d(0.0, 1.0);
    std::uniform_int_distribution<size_t> n_d(1, 33);
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<size_t> shorted_d(0, 14);

    for (int trial = 0; trial < 50; ++trial) {
        const size_t n = n_d(rng);
        std::vector<double> utils(n);
        for (double &u : utils)
            u = util_d(rng);
        CoolingSetting setting{tin_d(rng), flow_d(rng)};
        const double t_cold = cold_d(rng);
        Datacenter loop = test::oneLoop(n, t_cold);

        if (coin(rng) == 0) {
            test::LoopState got = test::evaluate(loop, utils, setting);
            RefCirculation ref = refEvaluate(loop, utils, setting, nullptr);
            expectSameCirculation(ref, got);
            continue;
        }

        CirculationHealth health;
        if (coin(rng) == 0)
            health.pump_flow_factor = pump_d(rng);
        health.resizeServers(n);
        for (size_t i = 0; i < n; ++i) {
            if (coin(rng) == 0)
                continue; // leave the lane clean
            health.fouling_kpw[i] = fouling_d(rng);
            health.teg_open[i] = coin(rng) == 0 ? 1 : 0;
            health.tegs_shorted[i] = shorted_d(rng);
        }
        test::LoopState got = test::evaluate(loop, utils, setting, &health);
        RefCirculation ref = refEvaluate(loop, utils, setting, &health);
        expectSameCirculation(ref, got);
    }
}

// ---------------------------------------------- short last loop

TEST(SoaKernelTest, ShortLastLoopMatchesScalarBitwise)
{
    struct Fleet
    {
        size_t servers;
        size_t per_loop;
        size_t tail;
    };
    for (const Fleet &f : {Fleet{103, 10, 3}, Fleet{41, 20, 1}}) {
        SCOPED_TRACE(std::to_string(f.servers) + " servers");
        DatacenterParams p;
        p.num_servers = f.servers;
        p.servers_per_circulation = f.per_loop;
        Datacenter dc(p);
        const size_t loops = dc.numCirculations();
        ASSERT_EQ(dc.circulationSize(loops - 1), f.tail);

        // Supplies below the free-cooling limit, so that a chiller
        // outage warms every loop.
        const double limit =
            hydraulic::FacilityPlant(p.plant).freeCoolingLimit();
        std::vector<CoolingSetting> settings(loops);
        for (size_t c = 0; c < loops; ++c)
            settings[c] = {limit - 1.0 - 0.5 * static_cast<double>(c),
                           20.0 + 7.0 * static_cast<double>(c)};
        const std::vector<double> utils = spreadUtils(f.servers);

        {
            SCOPED_TRACE("clean");
            expectFleetMatchesReference(dc, utils, settings, nullptr);
        }

        DatacenterHealth health;
        health.plant.chiller_out = true;
        health.circulations.resize(loops);
        health.circulations.back().pump_flow_factor = 0.35;
        CirculationHealth &middle = health.circulations[loops / 2];
        middle.resizeServers(f.per_loop);
        middle.fouling_kpw[1] = 0.12;
        middle.teg_open[3] = 1;
        middle.tegs_shorted[5] = 4;
        {
            SCOPED_TRACE("faulted");
            expectFleetMatchesReference(dc, utils, settings, &health);
        }
    }
}

// ------------------------------------------------ AoS materializers

TEST(SoaKernelTest, StateBlockAccessorsMaterializeAndRangeCheck)
{
    Datacenter loop = test::oneLoop(3);
    test::LoopState cs = test::evaluate(loop, {0.2, 0.5, 0.8}, {45.0, 50.0});

    std::vector<ServerState> aos;
    cs.servers.materializeInto(aos);
    ASSERT_EQ(aos.size(), 3u);
    for (size_t i = 0; i < 3; ++i)
        expectSameServerState(aos[i], cs.servers[i], i);
    EXPECT_THROW(cs.servers.server(3), Error);
}

TEST(SoaKernelTest, HealthLanesRoundTripThroughAosAccessors)
{
    CirculationHealth h;
    h.resizeServers(4);
    ServerHealth s;
    s.teg_open = true;
    s.tegs_shorted = 2;
    s.fouling_kpw = 0.12;
    h.setServer(2, s);

    ServerHealth back = h.server(2);
    EXPECT_TRUE(back.teg_open);
    EXPECT_EQ(back.tegs_shorted, 2u);
    EXPECT_DOUBLE_EQ(back.fouling_kpw, 0.12);
    EXPECT_TRUE(h.server(0).clean());
    EXPECT_FALSE(h.clean());
}

// ----------------------------------- checkpoint through the SoA path

TEST(SoaKernelTest, CheckpointResumeBitIdenticalThroughSoaSession)
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 40;
    cfg.datacenter.servers_per_circulation = 20;
    cfg.safe_mode.enabled = true;
    cfg.faults.scripted.push_back(
        {300.0, fault::FaultKind::PumpDegraded, 0, 0, 0.5, 0.0});
    cfg.faults.scripted.push_back(
        {600.0, fault::FaultKind::TegOpenCircuit, 1, 3, 0.0, 0.0});
    cfg.faults.fouling_kpw_per_year = 0.05;

    workload::TraceGenerator gen(11);
    auto trace = gen.generate(workload::TraceGenParams::forProfile(
                                  workload::TraceProfile::Drastic),
                              40, 2.0 * 3600.0);

    core::H2PSystem sys(cfg);
    auto full = sys.run(trace, sched::Policy::TegLoadBalance);

    const std::string ck = "soa_test_resume.ckpt";
    auto first = sys.startSession(trace, sched::Policy::TegLoadBalance);
    for (size_t i = 0; i < trace.numSteps() / 2; ++i)
        first.step();
    first.saveCheckpoint(ck);

    core::H2PSystem sys2(cfg);
    auto resumed = sys2.resumeSession(ck, trace);
    resumed.runToCompletion();
    auto rest = resumed.finish();
    std::remove(ck.c_str());

    EXPECT_TRUE(sameBits(full.summary.pre, rest.summary.pre));
    EXPECT_TRUE(
        sameBits(full.summary.avg_teg_w, rest.summary.avg_teg_w));
    EXPECT_TRUE(
        sameBits(full.summary.avg_cpu_w, rest.summary.avg_cpu_w));
    EXPECT_TRUE(sameBits(full.summary.teg_energy_lost_kwh,
                         rest.summary.teg_energy_lost_kwh));
    EXPECT_TRUE(sameBits(full.summary.safe_fraction,
                         rest.summary.safe_fraction));
    EXPECT_EQ(full.summary.max_faulted_servers,
              rest.summary.max_faulted_servers);
}

} // namespace
