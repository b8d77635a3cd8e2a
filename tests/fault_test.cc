/**
 * @file
 * Fault-injection and degraded-operation tests: health threading
 * through server/circulation/plant, sensor-fault channels, the safety
 * monitor, the thermal-trip watchdog, the deterministic fault
 * timeline, and the end-to-end resilient run — including the headline
 * scenario: a pump degradation mid-trace that the baseline controller
 * rides into a T_safe violation while degraded-mode control contains
 * it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/datacenter.h"
#include "cluster/server.h"
#include "core/h2p_system.h"
#include "fault/fault_injector.h"
#include "fault/sensor_fault.h"
#include "fault/watchdog.h"
#include "hydraulic/plant.h"
#include "sched/safe_mode.h"
#include "tests/support/evaluate.h"
#include "tests/support/watchdog_reference.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/random.h"
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

// --------------------------------------------------------- server health

TEST(ServerHealthTest, CleanHealthMatchesHealthyEvaluation)
{
    cluster::Server server;
    cluster::ServerState a = server.evaluate(0.6, 30.0, 40.0, 20.0);
    cluster::ServerState b =
        server.evaluate(0.6, 30.0, 40.0, 20.0, cluster::ServerHealth{});
    EXPECT_DOUBLE_EQ(a.die_temp_c, b.die_temp_c);
    EXPECT_DOUBLE_EQ(a.teg_power_w, b.teg_power_w);
    EXPECT_DOUBLE_EQ(a.cpu_power_w, b.cpu_power_w);
    EXPECT_DOUBLE_EQ(a.outlet_c, b.outlet_c);
    EXPECT_FALSE(b.faulted);
    EXPECT_DOUBLE_EQ(b.teg_power_lost_w, 0.0);
}

TEST(ServerHealthTest, FoulingRaisesDieTemperature)
{
    cluster::Server server;
    cluster::ServerHealth h;
    h.fouling_kpw = 0.05;
    cluster::ServerState clean = server.evaluate(0.6, 30.0, 40.0, 20.0);
    cluster::ServerState fouled =
        server.evaluate(0.6, 30.0, 40.0, 20.0, h);
    EXPECT_GT(fouled.die_temp_c, clean.die_temp_c);
    EXPECT_TRUE(fouled.faulted);
}

TEST(ServerHealthTest, OpenCircuitKillsWholeString)
{
    cluster::Server server;
    cluster::ServerHealth h;
    h.teg_open = true;
    cluster::ServerState clean = server.evaluate(0.6, 30.0, 40.0, 20.0);
    cluster::ServerState s = server.evaluate(0.6, 30.0, 40.0, 20.0, h);
    EXPECT_DOUBLE_EQ(s.teg_power_w, 0.0);
    EXPECT_NEAR(s.teg_power_lost_w, clean.teg_power_w, 1e-12);
    EXPECT_TRUE(s.faulted);
}

TEST(ServerHealthTest, ShortedDevicesScalePowerLinearly)
{
    // Power is linear in the series device count (Eq. 7): dropping
    // 3 of 12 shorted devices leaves 9/12 of the healthy output.
    cluster::Server server;
    cluster::ServerHealth h;
    h.tegs_shorted = 3;
    cluster::ServerState clean = server.evaluate(0.6, 30.0, 40.0, 20.0);
    cluster::ServerState s = server.evaluate(0.6, 30.0, 40.0, 20.0, h);
    EXPECT_NEAR(s.teg_power_w, clean.teg_power_w * 9.0 / 12.0, 1e-12);
    EXPECT_NEAR(s.teg_power_lost_w, clean.teg_power_w * 3.0 / 12.0,
                1e-12);
}

// --------------------------------------------------- circulation health

TEST(CirculationHealthTest, DegradedPumpStarvesTheLoop)
{
    cluster::Datacenter circ = test::oneLoop(4);
    std::vector<double> utils(4, 0.6);
    cluster::CoolingSetting setting{40.0, 30.0};

    cluster::CirculationHealth h;
    h.pump_flow_factor = 0.3;
    test::LoopState clean = test::evaluate(circ, utils, setting);
    test::LoopState s = test::evaluate(circ, utils, setting, &h);

    EXPECT_NEAR(s.delivered_flow_lph, 0.3 * setting.flow_lph, 1e-12);
    EXPECT_GT(s.max_die_c, clean.max_die_c);
    EXPECT_EQ(s.faulted_servers, 4u);
    // Pump power falls with the delivered flow (cubic affinity law).
    EXPECT_LT(s.pump_power_w, clean.pump_power_w);
}

TEST(CirculationHealthTest, DeadPumpLeavesFiniteButUnsafeDies)
{
    cluster::Datacenter circ = test::oneLoop(4);
    std::vector<double> utils(4, 0.8);
    cluster::CoolingSetting setting{40.0, 30.0};

    cluster::CirculationHealth h;
    h.pump_flow_factor = 0.0;
    test::LoopState s = test::evaluate(circ, utils, setting, &h);

    EXPECT_DOUBLE_EQ(s.delivered_flow_lph, 0.0);
    // The stagnant-flow clamp keeps the steady-state model finite;
    // the dies still run far past the vendor maximum.
    EXPECT_TRUE(std::isfinite(s.max_die_c));
    EXPECT_GT(s.max_die_c,
              circ.params().server.thermal.max_operating_c);
    EXPECT_FALSE(s.all_safe);
}

TEST(CirculationHealthTest, CleanHealthMatchesHealthyEvaluation)
{
    cluster::Datacenter circ = test::oneLoop(3);
    std::vector<double> utils{0.2, 0.5, 0.9};
    cluster::CoolingSetting setting{44.0, 25.0};
    const cluster::CirculationHealth clean_health;
    test::LoopState a = test::evaluate(circ, utils, setting);
    test::LoopState b =
        test::evaluate(circ, utils, setting, &clean_health);
    EXPECT_DOUBLE_EQ(a.teg_power_w, b.teg_power_w);
    EXPECT_DOUBLE_EQ(a.max_die_c, b.max_die_c);
    EXPECT_DOUBLE_EQ(a.pump_power_w, b.pump_power_w);
    EXPECT_EQ(b.faulted_servers, 0u);
}

// --------------------------------------------------------- plant health

TEST(PlantHealthTest, ChillerOutageFloorsTheSupply)
{
    hydraulic::FacilityPlant plant{hydraulic::PlantParams{}};
    hydraulic::PlantHealth h;
    h.chiller_out = true;
    double limit = plant.freeCoolingLimit();
    EXPECT_DOUBLE_EQ(plant.achievableSupply(limit + 5.0, h),
                     limit + 5.0);
    EXPECT_DOUBLE_EQ(plant.achievableSupply(limit - 5.0, h), limit);
    // No chiller power is drawn during the outage.
    hydraulic::PlantPower p = plant.power(50e3, limit - 5.0, 1000.0, h);
    EXPECT_DOUBLE_EQ(p.chiller_w, 0.0);
    EXPECT_GT(p.tower_w, 0.0);
}

TEST(PlantHealthTest, DarkPlantDrawsNothingAndRunsHot)
{
    hydraulic::FacilityPlant plant{hydraulic::PlantParams{}};
    hydraulic::PlantHealth h;
    h.chiller_out = true;
    h.tower_out = true;
    hydraulic::PlantPower p = plant.power(50e3, 30.0, 1000.0, h);
    EXPECT_DOUBLE_EQ(p.chiller_w, 0.0);
    EXPECT_DOUBLE_EQ(p.tower_w, 0.0);
    EXPECT_GE(plant.achievableSupply(20.0, h),
              plant.freeCoolingLimit() +
                  hydraulic::FacilityPlant::kDarkPlantPenaltyC);
}

TEST(PlantHealthTest, CleanHealthMatchesHealthyPower)
{
    hydraulic::FacilityPlant plant{hydraulic::PlantParams{}};
    hydraulic::PlantPower a = plant.power(50e3, 35.0, 1000.0);
    hydraulic::PlantPower b =
        plant.power(50e3, 35.0, 1000.0, hydraulic::PlantHealth{});
    EXPECT_DOUBLE_EQ(a.chiller_w, b.chiller_w);
    EXPECT_DOUBLE_EQ(a.tower_w, b.tower_w);
    EXPECT_DOUBLE_EQ(plant.achievableSupply(35.0,
                                            hydraulic::PlantHealth{}),
                     35.0);
}

// -------------------------------------------------------- sensor faults

TEST(SensorChannelTest, StuckLatchesFirstInWindowValue)
{
    fault::SensorChannel ch;
    fault::SensorFaultWindow w;
    w.kind = fault::SensorFaultKind::Stuck;
    w.start_s = 100.0;
    w.end_s = 200.0;
    ch.setFault(w);

    EXPECT_DOUBLE_EQ(ch.read(50.0, 0.0).value, 50.0);
    EXPECT_DOUBLE_EQ(ch.read(60.0, 100.0).value, 60.0); // latches 60
    EXPECT_DOUBLE_EQ(ch.read(75.0, 150.0).value, 60.0);
    EXPECT_DOUBLE_EQ(ch.read(75.0, 200.0).value, 75.0); // expired
}

TEST(SensorChannelTest, DriftWalksAwayAtConstantRate)
{
    fault::SensorChannel ch;
    fault::SensorFaultWindow w;
    w.kind = fault::SensorFaultKind::Drift;
    w.start_s = 0.0;
    w.end_s = -1.0; // permanent
    w.drift_per_hour = -2.0;
    ch.setFault(w);
    EXPECT_DOUBLE_EQ(ch.read(70.0, 0.0).value, 70.0);
    EXPECT_DOUBLE_EQ(ch.read(70.0, 3600.0).value, 68.0);
    EXPECT_DOUBLE_EQ(ch.read(70.0, 7200.0).value, 66.0);
}

TEST(SensorChannelTest, DropoutInvalidatesTheSample)
{
    fault::SensorChannel ch;
    fault::SensorFaultWindow w;
    w.kind = fault::SensorFaultKind::Dropout;
    w.start_s = 10.0;
    w.end_s = 20.0;
    ch.setFault(w);
    EXPECT_TRUE(ch.read(70.0, 5.0).valid);
    EXPECT_FALSE(ch.read(70.0, 15.0).valid);
    EXPECT_TRUE(ch.read(70.0, 25.0).valid);
}

// -------------------------------------------------------- safety monitor

/**
 * Feed circulation 0 one interval's readings (30 L/H commanded), then
 * assess it 300 s later.
 */
sched::SafeModeAction
feedAndAssess(sched::SafetyMonitor &mon, const sched::SensorReading &die,
              const sched::SensorReading &flow)
{
    mon.feed(0, die, flow, 30.0);
    return mon.assess(0, 300.0);
}

TEST(SafetyMonitorTest, PlausibleSteadyReadingsStayNormal)
{
    sched::SafetyMonitor mon(2);
    sched::SensorReading die{60.0, true};
    sched::SensorReading flow{30.0, true};
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(feedAndAssess(mon, die, flow),
                  sched::SafeModeAction::Normal);
    EXPECT_EQ(mon.numDegraded(), 0u);
}

TEST(SafetyMonitorTest, ImplausibleReadingForcesColdFallback)
{
    sched::SafetyMonitor mon(1);
    sched::SensorReading flow{30.0, true};
    EXPECT_EQ(feedAndAssess(mon, {150.0, true}, flow),
              sched::SafeModeAction::ColdFallback);
    EXPECT_EQ(feedAndAssess(mon, {60.0, false}, flow),
              sched::SafeModeAction::ColdFallback);
    EXPECT_EQ(mon.numDegraded(), 1u);
}

TEST(SafetyMonitorTest, RateViolationWidensTheMargin)
{
    sched::SafeModeParams p;
    p.hold_steps = 0;
    sched::SafetyMonitor mon(1, p);
    sched::SensorReading flow{30.0, true};
    feedAndAssess(mon, {60.0, true}, flow);
    // 60 -> 90 C in one 300 s interval: 0.1 C/s > 0.05 C/s.
    EXPECT_EQ(feedAndAssess(mon, {90.0, true}, flow),
              sched::SafeModeAction::WidenMargin);
}

TEST(SafetyMonitorTest, FlowShortfallForcesColdFallback)
{
    sched::SafetyMonitor mon(1);
    sched::SensorReading die{60.0, true};
    EXPECT_EQ(feedAndAssess(mon, die, {9.0, true}),
              sched::SafeModeAction::ColdFallback);
    EXPECT_EQ(feedAndAssess(mon, die, {30.0, false}),
              sched::SafeModeAction::ColdFallback);
}

TEST(SafetyMonitorTest, TriggerHoldsForConfiguredSteps)
{
    sched::SafeModeParams p;
    p.hold_steps = 2;
    sched::SafetyMonitor mon(1, p);
    sched::SensorReading die{60.0, true};
    sched::SensorReading good_flow{30.0, true};
    EXPECT_EQ(feedAndAssess(mon, die, {5.0, true}),
              sched::SafeModeAction::ColdFallback);
    // Condition cleared, but the action holds for two more intervals.
    EXPECT_EQ(feedAndAssess(mon, die, good_flow),
              sched::SafeModeAction::ColdFallback);
    EXPECT_EQ(feedAndAssess(mon, die, good_flow),
              sched::SafeModeAction::ColdFallback);
    EXPECT_EQ(feedAndAssess(mon, die, good_flow),
              sched::SafeModeAction::Normal);
    EXPECT_EQ(mon.actions(),
              std::vector<sched::SafeModeAction>{
                  sched::SafeModeAction::Normal});
}

// ------------------------------------------------------------- watchdog

TEST(WatchdogTest, TripsAboveVendorMaxAndDefersWork)
{
    fault::ThermalTripWatchdog wd(2);
    const std::vector<double> req{0.9, 0.9};

    // Interval 1: nothing tripped yet, requests pass through.
    std::vector<double> a = req;
    wd.shapeInPlace(a, 300.0);
    EXPECT_DOUBLE_EQ(a[0], 0.9);
    wd.observe(oracle::dieState({85.0, 60.0})); // server 0 over 78.9 C
    EXPECT_EQ(wd.tripEvents(), 1u);
    EXPECT_EQ(wd.numThrottled(), 1u);

    // Interval 2: server 0 capped at 0.5, the shortfall is deferred.
    a = req;
    wd.shapeInPlace(a, 300.0);
    EXPECT_DOUBLE_EQ(a[0], 0.5);
    EXPECT_DOUBLE_EQ(a[1], 0.9);
    EXPECT_NEAR(wd.backlogSeconds(300.0), 0.4 * 300.0, 1e-9);
    EXPECT_NEAR(wd.deferredWorkSeconds(), 0.4 * 300.0, 1e-9);
}

TEST(WatchdogTest, BacklogFeedsBackIntoLaterIntervals)
{
    fault::ThermalTripWatchdog wd(1);
    std::vector<double> a{0.9};
    wd.shapeInPlace(a, 300.0);
    wd.observe(oracle::dieState({85.0})); // cap -> 0.5
    a = {0.9};
    wd.shapeInPlace(a, 300.0); // backlog 0.4

    // Cool recovery: the cap releases step by step.
    for (int i = 0; i < 5; ++i)
        wd.observe(oracle::dieState({60.0}));
    EXPECT_DOUBLE_EQ(wd.cap(0), 1.0);
    EXPECT_EQ(wd.numThrottled(), 0u);

    // Backlog is re-added on top of the request, saturating at 100 %.
    a = {0.8};
    wd.shapeInPlace(a, 300.0);
    EXPECT_DOUBLE_EQ(a[0], 1.0);
    EXPECT_NEAR(wd.backlogSeconds(300.0), 0.2 * 300.0, 1e-9);
}

TEST(WatchdogTest, RepeatedTripsMultiplyDownToMinCap)
{
    fault::ThermalTripWatchdog wd(1);
    for (int i = 0; i < 10; ++i)
        wd.observe(oracle::dieState({95.0}));
    EXPECT_DOUBLE_EQ(wd.cap(0), wd.params().min_cap);
    EXPECT_EQ(wd.tripEvents(), 1u); // one sustained episode
}

TEST(WatchdogTest, RejectsCirculationsThatDoNotTileTheFleet)
{
    fault::ThermalTripWatchdog wd(4);
    cluster::DatacenterState state = oracle::dieState(
        {60.0, 60.0, 90.0, 60.0}, 2);
    state.circulations.pop_back(); // servers 2-3 uncovered
    EXPECT_THROW(wd.observe(state), Error);
    state = oracle::dieState({60.0, 60.0, 90.0, 60.0}, 2);
    state.circulations[1].offset = 1; // overlaps circulation 0
    EXPECT_THROW(wd.observe(state), Error);
    state = oracle::dieState({60.0, 60.0, 90.0, 60.0}, 2);
    state.circulations[1].count = 3; // runs past the fleet
    EXPECT_THROW(wd.observe(state), Error);
}

/**
 * The active-set watchdog against the full-scan reference: random
 * fleets, circulation sizes, parameters (trip points away from the
 * kernel's 78.9 C, min_cap = 1, release steps that snap to a full
 * cap) and die/utilization sequences, including -0 requests and
 * backlog left over at cap 1. After every shaping and every
 * observation the full state, the counters and the checkpoint bytes
 * must agree bit for bit; midway the watchdog is reloaded from its
 * own checkpoint, so the rebuilt active set is checked too.
 */
TEST(WatchdogTest, ActiveSetMatchesFullScanReference)
{
    size_t trips = 0, snaps = 0, leftover_at_full_cap = 0,
           unit_min_cap = 0, hot_quiet_circs = 0;
    for (uint64_t trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial);
        Rng rng(0x57a7c4e5 + trial);
        const size_t n = static_cast<size_t>(rng.uniformInt(1, 48));
        const size_t per_circ =
            rng.bernoulli(0.2) ? 0
                               : static_cast<size_t>(rng.uniformInt(
                                     1, static_cast<int>(n)));

        fault::WatchdogParams p;
        p.trip_c = rng.bernoulli(0.3) ? 78.9 : rng.uniform(60.0, 90.0);
        p.throttle_factor = rng.uniform(0.05, 0.95);
        p.recovery_margin_c =
            rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 10.0);
        const double steps[] = {0.1, 0.2, 0.25, 0.3, 0.5, 1.0};
        p.release_step = rng.bernoulli(0.6)
                             ? steps[rng.uniformInt(0, 5)]
                             : rng.uniform(0.01, 1.2);
        p.min_cap = rng.bernoulli(0.2) ? 1.0 : rng.uniform(0.05, 1.0);
        if (p.min_cap == 1.0)
            ++unit_min_cap;

        auto wd = std::make_unique<fault::ThermalTripWatchdog>(n, p);
        oracle::FullScanWatchdog ref(n, p);
        const double dt = rng.bernoulli(0.5) ? 300.0 : rng.uniform(1, 900);
        // How hot and how loaded this trial runs.
        const double heat = rng.uniform(0.0, 0.3);
        const double load = rng.uniform(0.2, 1.0);

        auto expectSame = [&](const char *when, size_t step) {
            SCOPED_TRACE(::testing::Message()
                         << when << " of step " << step);
            for (size_t i = 0; i < n; ++i)
                ASSERT_TRUE(sameBits(wd->cap(i), ref.cap(i)))
                    << "server " << i << ": " << wd->cap(i)
                    << " != " << ref.cap(i);
            ASSERT_EQ(wd->tripEvents(), ref.tripEvents());
            ASSERT_EQ(wd->numThrottled(), ref.numThrottled());
            ASSERT_TRUE(sameBits(wd->deferredWorkSeconds(),
                                 ref.deferredWorkSeconds()));
            ASSERT_TRUE(sameBits(wd->backlogSeconds(dt),
                                 ref.backlogSeconds(dt)));
            // Caps, backlogs and trip flags, byte for byte.
            ASSERT_EQ(oracle::visitBytes(*wd), oracle::visitBytes(ref));
        };

        const size_t num_steps = 60;
        for (size_t step = 0; step < num_steps; ++step) {
            std::vector<double> req(n);
            for (double &u : req) {
                const double r = rng.uniform();
                u = r < 0.05   ? -0.0
                    : r < 0.1  ? 0.0
                    : r < 0.2  ? 1.0
                               : std::min(1.0, rng.uniform(0.0, 2.0 * load));
            }
            std::vector<double> got = req, want = req;
            wd->shapeInPlace(got, dt);
            ref.shapeInPlace(want, dt);
            // Compared by value: the reference turns a quiet server's
            // -0 request into +0 (u + 0.0); the active set leaves it.
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], want[i]) << "server " << i;
            ASSERT_NO_FATAL_FAILURE(expectSame("shaping", step));

            for (size_t i = 0; i < n; ++i)
                if (ref.cap(i) == 1.0 && ref.backlog(i) > 0.0)
                    ++leftover_at_full_cap;

            const bool hot_step = rng.bernoulli(heat);
            std::vector<double> die(n);
            for (double &t : die)
                t = hot_step && rng.bernoulli(0.5)
                        ? p.trip_c + rng.uniform(-2.0, 8.0)
                        : p.trip_c - rng.uniform(-1.0, 25.0);
            // Now and then a die exactly at trip_c (not a trip).
            if (rng.bernoulli(0.1))
                die[static_cast<size_t>(
                    rng.uniformInt(0, static_cast<int>(n) - 1))] =
                    p.trip_c;
            const cluster::DatacenterState state =
                oracle::dieState(die, per_circ);
            for (const cluster::CirculationState &cs : state.circulations) {
                bool quiet_hot = false;
                for (size_t i = cs.offset; i < cs.offset + cs.count; ++i)
                    quiet_hot = quiet_hot ||
                                (die[i] > p.trip_c && ref.cap(i) == 1.0 &&
                                 !ref.tripped(i) && ref.backlog(i) == 0.0);
                hot_quiet_circs += quiet_hot ? 1 : 0;
            }

            std::vector<bool> was_tripped(n);
            for (size_t i = 0; i < n; ++i)
                was_tripped[i] = ref.tripped(i);
            const size_t trips_before = ref.tripEvents();
            wd->observe(state);
            ref.observe(die);
            trips += ref.tripEvents() - trips_before;
            for (size_t i = 0; i < n; ++i)
                if (was_tripped[i] && !ref.tripped(i))
                    ++snaps;
            ASSERT_NO_FATAL_FAILURE(expectSame("observation", step));

            if (step == num_steps / 2) {
                // Reload from the checkpoint bytes into a fresh
                // watchdog: the active set must be rebuilt.
                const std::string bytes = oracle::visitBytes(*wd);
                auto loaded =
                    std::make_unique<fault::ThermalTripWatchdog>(n, p);
                util::ByteReader r(bytes, 0, bytes.size());
                util::Archive ar(r);
                loaded->visit(ar);
                ASSERT_TRUE(r.exhausted());
                wd = std::move(loaded);
                ASSERT_NO_FATAL_FAILURE(expectSame("reload", step));
            }
        }
    }
    // The sequences reach every case the active set has to get right.
    EXPECT_GT(trips, 1000u);
    EXPECT_GT(snaps, 500u);
    EXPECT_GT(leftover_at_full_cap, 100u);
    EXPECT_GT(unit_min_cap, 20u);
    EXPECT_GT(hot_quiet_circs, 1000u);
}

// ------------------------------------------------------- fault injector

TEST(FaultInjectorTest, DefaultScenarioIsDisabledAndEventFree)
{
    fault::FaultScenarioParams p;
    EXPECT_FALSE(p.enabled());
    cluster::DatacenterParams dp;
    dp.num_servers = 40;
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);
    fault::FaultInjector inj(p, dc, 24.0 * 3600.0);
    EXPECT_TRUE(inj.events().empty());
    inj.advanceTo(12.0 * 3600.0);
    EXPECT_TRUE(inj.health().clean());
    EXPECT_EQ(inj.struckCount(), 0u);
}

TEST(FaultInjectorTest, ScriptedOutageAppliesAndExpires)
{
    fault::FaultScenarioParams p;
    fault::FaultEvent e;
    e.time_s = 1000.0;
    e.kind = fault::FaultKind::ChillerOutage;
    e.duration_s = 500.0;
    p.scripted.push_back(e);

    cluster::DatacenterParams dp;
    dp.num_servers = 20;
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);
    fault::FaultInjector inj(p, dc, 3600.0);

    inj.advanceTo(999.0);
    EXPECT_FALSE(inj.health().plant.chiller_out);
    inj.advanceTo(1200.0);
    EXPECT_TRUE(inj.health().plant.chiller_out);
    EXPECT_EQ(inj.struckCount(), 1u);
    inj.advanceTo(1600.0);
    EXPECT_FALSE(inj.health().plant.chiller_out);
    EXPECT_TRUE(inj.health().clean());
}

TEST(FaultInjectorTest, ScriptedPumpAndTegFaultsTargetTheirLoop)
{
    fault::FaultScenarioParams p;
    fault::FaultEvent pump;
    pump.time_s = 100.0;
    pump.kind = fault::FaultKind::PumpDegraded;
    pump.circulation = 1;
    pump.magnitude = 0.4;
    p.scripted.push_back(pump);
    fault::FaultEvent teg;
    teg.time_s = 200.0;
    teg.kind = fault::FaultKind::TegOpenCircuit;
    teg.circulation = 0;
    teg.server = 3;
    p.scripted.push_back(teg);

    cluster::DatacenterParams dp;
    dp.num_servers = 40;
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);
    fault::FaultInjector inj(p, dc, 3600.0);

    inj.advanceTo(300.0);
    const cluster::DatacenterHealth &h = inj.health();
    EXPECT_DOUBLE_EQ(h.circulations[1].pump_flow_factor, 0.4);
    EXPECT_DOUBLE_EQ(h.circulations[0].pump_flow_factor, 1.0);
    ASSERT_EQ(h.circulations[0].numServers(), 20u);
    EXPECT_EQ(h.circulations[0].teg_open[3], 1);
    EXPECT_EQ(h.circulations[0].teg_open[2], 0);
}

TEST(FaultInjectorTest, FoulingGrowsLinearlyWithTime)
{
    fault::FaultScenarioParams p;
    p.fouling_kpw_per_year = 0.1;
    cluster::DatacenterParams dp;
    dp.num_servers = 20;
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);
    fault::FaultInjector inj(p, dc,
                             fault::FaultInjector::kSecondsPerYear);
    EXPECT_TRUE(p.enabled());
    inj.advanceTo(fault::FaultInjector::kSecondsPerYear / 2.0);
    ASSERT_EQ(inj.health().circulations[0].numServers(), 20u);
    EXPECT_NEAR(inj.health().circulations[0].fouling_kpw[0],
                0.05, 1e-12);
}

TEST(FaultInjectorTest, RejectsOutOfRangeScriptedTargets)
{
    cluster::DatacenterParams dp;
    dp.num_servers = 20;
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);

    fault::FaultScenarioParams p;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::PumpFailed;
    e.circulation = 7; // only one circulation exists
    p.scripted.push_back(e);
    EXPECT_THROW(fault::FaultInjector(p, dc, 3600.0), Error);

    fault::FaultScenarioParams q;
    fault::FaultEvent s;
    s.kind = fault::FaultKind::TegShortCircuit;
    s.circulation = 0;
    s.server = 20; // one past the end
    q.scripted.push_back(s);
    EXPECT_THROW(fault::FaultInjector(q, dc, 3600.0), Error);
}

TEST(FaultInjectorTest, RejectsNegativeRatesAndDurations)
{
    cluster::DatacenterParams dp;
    dp.num_servers = 20;
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);

    fault::FaultScenarioParams p;
    p.pump_degrade_per_circ_year = -5.0;
    EXPECT_THROW(fault::FaultInjector(p, dc, 3600.0), Error);

    fault::FaultScenarioParams q;
    q.chiller_outages_per_year = 1.0;
    q.outage_duration_hours = 0.0;
    EXPECT_THROW(fault::FaultInjector(q, dc, 3600.0), Error);
}

TEST(FaultInjectorTest, SampledRatesProduceEvents)
{
    fault::FaultScenarioParams p;
    // ~10 expected pump degradations over the horizon.
    p.pump_degrade_per_circ_year = 5.0;
    cluster::DatacenterParams dp;
    dp.num_servers = 40;
    dp.servers_per_circulation = 20;
    cluster::Datacenter dc(dp);
    fault::FaultInjector inj(p, dc,
                             fault::FaultInjector::kSecondsPerYear);
    EXPECT_GT(inj.events().size(), 0u);
    for (size_t i = 1; i < inj.events().size(); ++i)
        EXPECT_LE(inj.events()[i - 1].time_s, inj.events()[i].time_s);
    for (const fault::FaultEvent &e : inj.events()) {
        EXPECT_EQ(e.kind, fault::FaultKind::PumpDegraded);
        EXPECT_GT(e.magnitude, 0.0);
        EXPECT_LT(e.magnitude, 1.0);
    }
}

// -------------------------------------------------- config validation

TEST(ValidationTest, DatacenterRejectsDegenerateParams)
{
    cluster::DatacenterParams p;
    p.num_servers = 0;
    EXPECT_THROW(cluster::Datacenter{p}, Error);

    p = cluster::DatacenterParams{};
    p.servers_per_circulation = 0;
    EXPECT_THROW(cluster::Datacenter{p}, Error);

    p = cluster::DatacenterParams{};
    p.cold_source_c = -5.0;
    EXPECT_THROW(cluster::Datacenter{p}, Error);

    p = cluster::DatacenterParams{};
    p.server.tegs_per_server = 0;
    EXPECT_THROW(cluster::Datacenter{p}, Error);
}

TEST(ValidationTest, TegPowerPerServerGuardsEmptyCluster)
{
    cluster::DatacenterState s;
    s.teg_power_w = 100.0;
    EXPECT_DOUBLE_EQ(s.tegPowerPerServer(0), 0.0);
}

// ------------------------------------------------- end-to-end scenarios

struct ResilienceFixture : ::testing::Test
{
    ResilienceFixture()
    {
        cfg.datacenter.num_servers = 60;
        cfg.datacenter.servers_per_circulation = 20;
        workload::TraceGenerator gen(41);
        trace = std::make_unique<workload::UtilizationTrace>(
            gen.generate(workload::TraceGenParams::forProfile(
                             workload::TraceProfile::Common),
                         60, 4.0 * 3600.0));
    }

    /** A permanent pump degradation to 15 % of the commanded flow on
     *  loop 0, one quarter into the trace — severe enough that the
     *  optimizer's planned operating point no longer holds T_safe. */
    static fault::FaultScenarioParams pumpScenario()
    {
        fault::FaultScenarioParams p;
        fault::FaultEvent e;
        e.time_s = 3600.0;
        e.kind = fault::FaultKind::PumpDegraded;
        e.circulation = 0;
        e.magnitude = 0.15;
        p.scripted.push_back(e);
        return p;
    }

    core::H2PConfig cfg;
    std::unique_ptr<workload::UtilizationTrace> trace;
};

TEST_F(ResilienceFixture, NoFaultSafeModeRunMatchesBaselineBitExactly)
{
    // Zero-cost requirement: with no fault active, the resilient loop
    // (safe mode on, watchdog armed) must reproduce the fault-free
    // path bit for bit.
    core::H2PSystem baseline(cfg);
    core::RunSummary a =
        baseline.run(*trace, sched::Policy::TegLoadBalance).summary;

    cfg.safe_mode.enabled = true;
    core::H2PSystem guarded(cfg);
    core::RunSummary b =
        guarded.run(*trace, sched::Policy::TegLoadBalance).summary;

    EXPECT_DOUBLE_EQ(a.avg_teg_w, b.avg_teg_w);
    EXPECT_DOUBLE_EQ(a.peak_teg_w, b.peak_teg_w);
    EXPECT_DOUBLE_EQ(a.avg_cpu_w, b.avg_cpu_w);
    EXPECT_DOUBLE_EQ(a.pre, b.pre);
    EXPECT_DOUBLE_EQ(a.teg_energy_kwh, b.teg_energy_kwh);
    EXPECT_DOUBLE_EQ(a.cpu_energy_kwh, b.cpu_energy_kwh);
    EXPECT_DOUBLE_EQ(a.plant_energy_kwh, b.plant_energy_kwh);
    EXPECT_DOUBLE_EQ(a.pump_energy_kwh, b.pump_energy_kwh);
    EXPECT_DOUBLE_EQ(a.safe_fraction, b.safe_fraction);
    EXPECT_DOUBLE_EQ(a.avg_t_in_c, b.avg_t_in_c);
    EXPECT_EQ(b.fault_events, 0u);
    EXPECT_EQ(b.throttle_events, 0u);
    EXPECT_EQ(b.safe_mode_steps, 0u);
    EXPECT_DOUBLE_EQ(b.teg_energy_lost_kwh, 0.0);
    ASSERT_EQ(a.circulation_safe_fraction.size(),
              b.circulation_safe_fraction.size());
    for (size_t c = 0; c < a.circulation_safe_fraction.size(); ++c)
        EXPECT_DOUBLE_EQ(a.circulation_safe_fraction[c],
                         b.circulation_safe_fraction[c]);
}

TEST_F(ResilienceFixture, BaselineRidesPumpDegradationIntoViolation)
{
    cfg.faults = pumpScenario();
    core::H2PSystem sys(cfg);
    core::RunSummary s =
        sys.run(*trace, sched::Policy::TegLoadBalance).summary;

    EXPECT_EQ(s.fault_events, 1u);
    // Without degraded-mode control the optimizer keeps planning for
    // the commanded flow it no longer gets: loop 0 violates T_safe
    // for the rest of the run.
    ASSERT_EQ(s.circulation_safe_fraction.size(), 3u);
    EXPECT_LT(s.circulation_safe_fraction[0], 0.5);
    EXPECT_LT(s.safe_fraction, 0.5);
}

TEST_F(ResilienceFixture, SafeModeContainsThePumpDegradation)
{
    cfg.faults = pumpScenario();
    cfg.safe_mode.enabled = true;
    core::H2PSystem sys(cfg);
    core::RunSummary s =
        sys.run(*trace, sched::Policy::TegLoadBalance).summary;

    // The acceptance bar: every unaffected circulation stays >= 0.95
    // safe, and the faulted loop is contained, not abandoned.
    ASSERT_EQ(s.circulation_safe_fraction.size(), 3u);
    EXPECT_GE(s.circulation_safe_fraction[1], 0.95);
    EXPECT_GE(s.circulation_safe_fraction[2], 0.95);
    EXPECT_GE(s.circulation_safe_fraction[0], 0.9);
    EXPECT_GT(s.safe_mode_steps, 0u);

    // And it demonstrably beats the baseline on the faulted loop.
    cfg.safe_mode.enabled = false;
    core::H2PSystem base(cfg);
    core::RunSummary b =
        base.run(*trace, sched::Policy::TegLoadBalance).summary;
    EXPECT_GT(s.circulation_safe_fraction[0],
              b.circulation_safe_fraction[0] + 0.3);
    EXPECT_GT(s.safe_fraction, b.safe_fraction);
}

TEST_F(ResilienceFixture, TegFaultsLoseHarvestNotSafety)
{
    fault::FaultEvent e;
    e.time_s = 0.0;
    e.kind = fault::FaultKind::TegOpenCircuit;
    e.circulation = 0;
    e.server = 0;
    cfg.faults.scripted.push_back(e);
    core::H2PSystem sys(cfg);
    core::RunSummary s =
        sys.run(*trace, sched::Policy::TegLoadBalance).summary;

    EXPECT_GT(s.teg_energy_lost_kwh, 0.0);
    EXPECT_EQ(s.max_faulted_servers, 1u);

    core::H2PConfig clean_cfg = cfg;
    clean_cfg.faults = fault::FaultScenarioParams{};
    core::H2PSystem clean(clean_cfg);
    core::RunSummary c =
        clean.run(*trace, sched::Policy::TegLoadBalance).summary;
    EXPECT_LT(s.teg_energy_kwh, c.teg_energy_kwh);
    EXPECT_DOUBLE_EQ(s.safe_fraction, c.safe_fraction);
}

} // namespace
} // namespace h2p
