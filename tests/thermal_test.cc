/**
 * @file
 * Unit tests for the thermal module: cold plates, TEG device/module
 * (paper Eq. 1-7), TEC, the CPU thermal model (Fig. 9-11) and the
 * transient RC network (Fig. 3 substrate).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "thermal/cold_plate.h"
#include "thermal/cpu.h"
#include "thermal/rc_network.h"
#include "thermal/tec.h"
#include "thermal/teg.h"
#include "util/error.h"

namespace h2p {
namespace thermal {
namespace {

bool
sameBytes(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Flows the step kernel hoists at: the stagnant-pump floor (2 L/H),
 * the look-up grid ends (10 and 100 L/H), the TEG reference flow, and
 * 200 geometrically spaced flows from 1 to 400 L/H.
 */
std::vector<double>
hoistFlows()
{
    std::vector<double> flows = {2.0, 10.0, 100.0, 200.0};
    for (int i = 0; i < 200; ++i)
        flows.push_back(std::pow(400.0, i / 199.0));
    return flows;
}

// ------------------------------------------------------------ cold plate

TEST(ColdPlateTest, ResistanceDecreasesWithFlow)
{
    ColdPlate plate;
    double prev = 1e9;
    for (double f : {10.0, 20.0, 50.0, 100.0, 250.0}) {
        double r = plate.resistance(f);
        EXPECT_LT(r, prev) << "flow " << f;
        EXPECT_GT(r, plate.params().base_resistance_kpw);
        prev = r;
    }
}

TEST(ColdPlateTest, ApproachesBaseResistanceAtHighFlow)
{
    ColdPlate plate;
    EXPECT_NEAR(plate.resistance(1e9),
                plate.params().base_resistance_kpw, 1e-4);
}

TEST(ColdPlateTest, RejectsNonPositiveFlow)
{
    ColdPlate plate;
    EXPECT_THROW(plate.resistance(0.0), Error);
    EXPECT_THROW(plate.resistance(-5.0), Error);
}

// ------------------------------------------------------------------- TEG

TEST(TegDeviceTest, VocMatchesPaperEq3)
{
    TegDevice teg;
    // v = 0.0448 dT - 0.0051 (Eq. 3).
    EXPECT_NEAR(teg.openCircuitVoltage(10.0), 0.4429, 1e-9);
    EXPECT_NEAR(teg.openCircuitVoltage(25.0), 1.1149, 1e-9);
}

TEST(TegDeviceTest, VocClampedAtZeroForTinyDt)
{
    TegDevice teg;
    EXPECT_DOUBLE_EQ(teg.openCircuitVoltage(0.0), 0.0);
    EXPECT_DOUBLE_EQ(teg.openCircuitVoltage(-5.0), 0.0);
}

TEST(TegDeviceTest, EmpiricalPowerMatchesPaperEq6)
{
    TegDevice teg;
    // P = 0.0003 dT^2 - 0.0003 dT + 0.0011 (Eq. 6).
    EXPECT_NEAR(teg.maxPowerEmpirical(25.0), 0.0003 * 625 -
                                                 0.0003 * 25 + 0.0011,
                1e-12);
    EXPECT_DOUBLE_EQ(teg.maxPowerEmpirical(0.0), 0.0);
    EXPECT_DOUBLE_EQ(teg.maxPowerEmpirical(-3.0), 0.0);
}

TEST(TegDeviceTest, PhysicalPowerIsVocSquaredOver4R)
{
    TegDevice teg;
    double v = teg.openCircuitVoltage(20.0);
    EXPECT_NEAR(teg.maxPowerPhysical(20.0), v * v / 8.0, 1e-12);
}

TEST(TegDeviceTest, EmpiricalExceedsPhysicalByDocumentedGap)
{
    // The paper's direct power fit sits ~19 % above the ideal
    // matched-load prediction from its own V_oc fit (DESIGN.md).
    TegDevice teg;
    for (double dt : {10.0, 15.0, 20.0, 25.0}) {
        double ratio =
            teg.maxPowerEmpirical(dt) / teg.maxPowerPhysical(dt);
        EXPECT_GT(ratio, 1.05) << "dT " << dt;
        EXPECT_LT(ratio, 1.45) << "dT " << dt;
    }
}

TEST(TegModuleTest, SeriesVoltageScalesLinearly)
{
    TegParams p;
    for (size_t n : {2u, 6u, 12u}) {
        TegModule module(n, p);
        TegDevice dev(p);
        EXPECT_NEAR(module.openCircuitVoltage(15.0),
                    double(n) * dev.openCircuitVoltage(15.0), 1e-12);
    }
}

TEST(TegModuleTest, SeriesResistanceScales)
{
    TegModule module(12);
    EXPECT_DOUBLE_EQ(module.resistance(), 24.0);
}

TEST(TegModuleTest, SeriesPowerScalesLinearly)
{
    // Eq. 7: P_max_n = n * P_max_1.
    TegDevice dev;
    TegModule m12(12);
    EXPECT_NEAR(m12.maxPower(25.0), 12.0 * dev.maxPowerEmpirical(25.0),
                1e-12);
}

TEST(TegModuleTest, TwelveTegsAt25CExceed1_8W)
{
    // Paper: "the maximum output power of 12 TEGs can be higher than
    // 1.8 W" around dT = 25 C. Eq. 7 evaluates to 2.17 W there.
    TegModule m12(12);
    EXPECT_GT(m12.maxPower(25.0), 1.8);
    EXPECT_NEAR(m12.maxPower(25.0), 2.173, 0.01);
}

TEST(TegModuleTest, FlowCouplingIsOneAtReference)
{
    TegModule module(6);
    double ref = module.device().params().reference_flow_lph;
    EXPECT_NEAR(module.flowCoupling(ref), 1.0, 1e-12);
}

TEST(TegModuleTest, FlowCouplingGrowsWithFlow)
{
    // Fig. 7: larger flow -> slightly higher voltage.
    TegModule module(6);
    double prev = 0.0;
    for (double f : {10.0, 20.0, 30.0, 100.0, 200.0}) {
        double c = module.flowCoupling(f);
        EXPECT_GT(c, prev);
        prev = c;
    }
    // ... but the effect is modest (the paper: "too little to be
    // worth making"): within ~30 % over a 20x flow range.
    EXPECT_GT(module.flowCoupling(10.0), 0.70);
}

TEST(TegModuleTest, FlowCouplingMatchesUncachedFormulaBitwise)
{
    // The reference-flow junction fraction is computed once at
    // construction; the coupling must equal re-deriving it per call.
    TegParams slow_ref;
    slow_ref.reference_flow_lph = 35.0;
    for (const TegModule &module :
         {TegModule(12), TegModule(4, slow_ref)}) {
        auto raw = [&module](double f) {
            double r_teg = module.device().thermalResistance();
            double r_plates = 2.0 * module.plate().resistance(f);
            return r_teg / (r_teg + r_plates);
        };
        const double ref = module.device().params().reference_flow_lph;
        for (double f : hoistFlows()) {
            const double uncached = raw(f) / raw(ref);
            EXPECT_TRUE(sameBytes(module.flowCoupling(f), uncached))
                << "flow " << f;
            EXPECT_TRUE(
                sameBytes(module.stepCoefficients(f).coupling, uncached))
                << "flow " << f;
        }
    }
}

TEST(TegModuleTest, PowerFromTempsUsesEq2Difference)
{
    TegModule module(12);
    double p = module.powerFromTemps(54.0, 20.0, 200.0);
    EXPECT_NEAR(p, module.maxPower(34.0, 200.0), 1e-12);
    EXPECT_DOUBLE_EQ(module.powerFromTemps(19.0, 20.0, 200.0), 0.0);
}

TEST(TegModuleTest, RejectsEmptyModule)
{
    EXPECT_THROW(TegModule(0), Error);
}

/** Parameterized: V_oc_n is n times the single voltage (Fig. 8a). */
class TegSeriesTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(TegSeriesTest, VoltageAndPowerScaleWithCount)
{
    size_t n = GetParam();
    TegModule module(n);
    TegDevice dev;
    for (double dt = 2.0; dt <= 25.0; dt += 4.5) {
        EXPECT_NEAR(module.openCircuitVoltage(dt),
                    double(n) * dev.openCircuitVoltage(dt), 1e-9);
        EXPECT_NEAR(module.maxPower(dt),
                    double(n) * dev.maxPowerEmpirical(dt), 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Counts, TegSeriesTest,
                         ::testing::Values(1, 2, 4, 6, 8, 10, 12));

// ------------------------------------------------------------------- TEC

TEST(TecTest, PumpsHeatAtOptimalCurrent)
{
    Tec tec;
    TecOperatingPoint op = tec.maxCooling(40.0, 45.0);
    EXPECT_GT(op.heat_pumped_w, 0.0);
    EXPECT_GT(op.power_in_w, 0.0);
    EXPECT_GT(op.cop, 0.0);
}

TEST(TecTest, ZeroCurrentOnlyConducts)
{
    Tec tec;
    TecOperatingPoint op = tec.evaluate(0.0, 40.0, 50.0);
    // No drive: the module is a passive conductor, heat leaks
    // backwards (negative pumped heat), no electrical power.
    EXPECT_NEAR(op.heat_pumped_w,
                -tec.params().conductance_wpk * 10.0, 1e-12);
    EXPECT_DOUBLE_EQ(op.power_in_w, 0.0);
}

TEST(TecTest, PumpedHeatFallsWithTemperatureLift)
{
    Tec tec;
    double i = 3.0;
    double prev = 1e9;
    for (double dt : {0.0, 5.0, 10.0, 20.0}) {
        TecOperatingPoint op = tec.evaluate(i, 40.0, 40.0 + dt);
        EXPECT_LT(op.heat_pumped_w, prev);
        prev = op.heat_pumped_w;
    }
}

TEST(TecTest, CurrentForHeatHitsTarget)
{
    Tec tec;
    double current = 0.0;
    TecOperatingPoint op = tec.currentForHeat(10.0, 40.0, 45.0,
                                              &current);
    EXPECT_NEAR(op.heat_pumped_w, 10.0, 0.05);
    EXPECT_GT(current, 0.0);
    EXPECT_LT(current, tec.optimalCurrent(40.0));
}

TEST(TecTest, CurrentForHeatSaturatesWhenUnreachable)
{
    Tec tec;
    TecOperatingPoint best = tec.maxCooling(40.0, 45.0);
    TecOperatingPoint op =
        tec.currentForHeat(best.heat_pumped_w + 50.0, 40.0, 45.0);
    EXPECT_NEAR(op.heat_pumped_w, best.heat_pumped_w, 1e-9);
}

TEST(TecTest, CurrentClampedToDriveLimit)
{
    Tec tec;
    TecOperatingPoint capped = tec.evaluate(100.0, 40.0, 45.0);
    TecOperatingPoint limit =
        tec.evaluate(tec.params().max_current_a, 40.0, 45.0);
    EXPECT_DOUBLE_EQ(capped.heat_pumped_w, limit.heat_pumped_w);
}

// ----------------------------------------------------- CPU thermal model

TEST(CpuThermalTest, SlopeWithinPaperBand)
{
    // Fig. 11: k in [1, 1.3], growing as flow shrinks.
    CpuThermalModel cpu;
    double k20 = cpu.coolantSlope(20.0);
    double k250 = cpu.coolantSlope(250.0);
    EXPECT_GT(k20, 1.2);
    EXPECT_LE(k20, 1.32);
    EXPECT_GT(k250, 1.0);
    EXPECT_LT(k250, 1.1);
    EXPECT_GT(k20, k250);
}

TEST(CpuThermalTest, StepCoefficientsMatchPerCallAccessorsBitwise)
{
    // The hoist derives the slope from its own plate resistance
    // instead of evaluating the plate a second time.
    CpuThermalModel cpu;
    for (double f : hoistFlows()) {
        const CpuStepCoefficients c = cpu.stepCoefficients(f);
        EXPECT_TRUE(sameBytes(c.plate_r_kpw, cpu.plateResistance(f, 0.0)))
            << "flow " << f;
        EXPECT_TRUE(sameBytes(c.slope_k, cpu.coolantSlope(f, 0.0)))
            << "flow " << f;
    }
}

TEST(CpuThermalTest, DieTempLinearInCoolant)
{
    CpuThermalModel cpu;
    double p = 50.0, f = 20.0;
    double t1 = cpu.dieTemperature(p, f, 30.0);
    double t2 = cpu.dieTemperature(p, f, 40.0);
    double t3 = cpu.dieTemperature(p, f, 50.0);
    EXPECT_NEAR(t3 - t2, t2 - t1, 1e-9); // exactly linear
    EXPECT_NEAR((t2 - t1) / 10.0, cpu.coolantSlope(f), 1e-9);
}

TEST(CpuThermalTest, PaperSafetyClaimsReproduced)
{
    // Sec. II-B: 40-45 C water keeps a 100 %-utilized E5-2650 V3
    // below 78.9 C; above 50 C water and ~70 % utilization it
    // exceeds the maximum.
    CpuThermalModel cpu;
    const double p100 = 109.71 * std::log(2.17) - 7.83; // Eq. 20
    const double t_max = cpu.params().max_operating_c;
    EXPECT_LE(cpu.dieTemperature(p100, 20.0, 45.0), t_max);
    const double p75 = 109.71 * std::log(1.92) - 7.83;
    EXPECT_GT(cpu.dieTemperature(p75, 20.0, 51.0), t_max);
}

TEST(CpuThermalTest, OutletDeltaInPaperBandAt20Lph)
{
    // Fig. 9: dT_out-in within ~1-3.5 C at 20 L/H, driven by
    // utilization.
    CpuThermalModel cpu;
    const double p_idle = 109.71 * std::log(1.17) - 7.83;
    const double p_full = 109.71 * std::log(2.17) - 7.83;
    double d_idle = cpu.outletDelta(p_idle, 20.0, 40.0);
    double d_full = cpu.outletDelta(p_full, 20.0, 40.0);
    EXPECT_GT(d_idle, 0.5);
    EXPECT_LT(d_idle, 1.5);
    EXPECT_GT(d_full, 3.0);
    EXPECT_LT(d_full, 4.2);
    EXPECT_GT(d_full, d_idle);
}

TEST(CpuThermalTest, OutletDeltaShrinksWithFlow)
{
    CpuThermalModel cpu;
    double d20 = cpu.outletDelta(60.0, 20.0, 40.0);
    double d100 = cpu.outletDelta(60.0, 100.0, 40.0);
    EXPECT_GT(d20, d100);
}

TEST(CpuThermalTest, OutletTempIsInletPlusDelta)
{
    CpuThermalModel cpu;
    double t_in = 42.0;
    EXPECT_NEAR(cpu.outletTemperature(50.0, 20.0, t_in),
                t_in + cpu.outletDelta(50.0, 20.0, t_in), 1e-12);
}

TEST(CpuThermalTest, HeatToCoolantIncludesBoundedLeakage)
{
    CpuThermalModel cpu;
    double heat = cpu.heatToCoolant(50.0, 20.0, 40.0);
    // Heat = dynamic + leakage + parasitic: more than the dynamic
    // power, but bounded (leakage is a few watts, not tens).
    EXPECT_GT(heat, 50.0 + cpu.params().parasitic_w - 1e-9);
    EXPECT_LT(heat, 50.0 + cpu.params().parasitic_w + 10.0);
}

TEST(CpuThermalTest, RejectsNegativePower)
{
    CpuThermalModel cpu;
    EXPECT_THROW(cpu.dieTemperature(-1.0, 20.0, 40.0), Error);
}

/** Parameterized flow sweep: slope monotonically falls with flow. */
class SlopeMonotonicTest : public ::testing::TestWithParam<double>
{
};

TEST_P(SlopeMonotonicTest, SlopeAboveOneAndBelowAtDoubleFlow)
{
    CpuThermalModel cpu;
    double f = GetParam();
    EXPECT_GT(cpu.coolantSlope(f), 1.0);
    EXPECT_GT(cpu.coolantSlope(f), cpu.coolantSlope(2.0 * f));
}

INSTANTIATE_TEST_SUITE_P(Flows, SlopeMonotonicTest,
                         ::testing::Values(10.0, 20.0, 40.0, 80.0,
                                           125.0, 200.0));

// ------------------------------------------------------------ RC network

TEST(RcNetworkTest, SingleNodeReachesAnalyticSteadyState)
{
    RcNetwork net;
    auto coolant = net.addBoundary("coolant", 26.0);
    auto die = net.addNode("die", 100.0, 26.0);
    net.connect(die, coolant, 2.0); // R = 2 K/W
    net.setPower(die, 30.0);
    net.step(10000.0); // many time constants (tau = 200 s)
    EXPECT_NEAR(net.temperature(die), 26.0 + 60.0, 0.01);
}

TEST(RcNetworkTest, TransientFollowsExponential)
{
    RcNetwork net;
    auto coolant = net.addBoundary("coolant", 20.0);
    auto die = net.addNode("die", 100.0, 20.0);
    net.connect(die, coolant, 1.0); // tau = 100 s
    net.setPower(die, 50.0);
    net.step(100.0); // one time constant
    double expected = 20.0 + 50.0 * (1.0 - std::exp(-1.0));
    EXPECT_NEAR(net.temperature(die), expected, 0.3);
}

TEST(RcNetworkTest, TwoNodeChainSteadyState)
{
    RcNetwork net;
    auto coolant = net.addBoundary("coolant", 25.0);
    auto plate = net.addNode("plate", 60.0, 25.0);
    auto die = net.addNode("die", 150.0, 25.0);
    net.connect(die, plate, 1.7);
    net.connect(plate, coolant, 0.24);
    net.setPower(die, 26.71); // P at 20 % utilization, Eq. 20
    net.step(20000.0);
    EXPECT_NEAR(net.temperature(die), 25.0 + 26.71 * (1.7 + 0.24),
                0.05);
    EXPECT_NEAR(net.temperature(plate), 25.0 + 26.71 * 0.24, 0.05);
}

TEST(RcNetworkTest, BoundaryStaysPinned)
{
    RcNetwork net;
    auto b = net.addBoundary("b", 30.0);
    auto n = net.addNode("n", 10.0, 80.0);
    net.connect(n, b, 0.5);
    net.step(1000.0);
    EXPECT_DOUBLE_EQ(net.temperature(b), 30.0);
    EXPECT_NEAR(net.temperature(n), 30.0, 0.01);
}

TEST(RcNetworkTest, SetBoundaryRetargets)
{
    RcNetwork net;
    auto b = net.addBoundary("b", 30.0);
    auto n = net.addNode("n", 10.0, 30.0);
    net.connect(n, b, 0.5);
    net.setBoundary(b, 50.0);
    net.step(1000.0);
    EXPECT_NEAR(net.temperature(n), 50.0, 0.01);
}

TEST(RcNetworkTest, GuardsAgainstMisuse)
{
    RcNetwork net;
    auto b = net.addBoundary("b", 30.0);
    auto n = net.addNode("n", 10.0, 30.0);
    EXPECT_THROW(net.setPower(b, 5.0), Error);
    EXPECT_THROW(net.setBoundary(n, 5.0), Error);
    EXPECT_THROW(net.connect(n, n, 1.0), Error);
    EXPECT_THROW(net.connect(n, b, 0.0), Error);
    EXPECT_THROW(net.addNode("bad", 0.0, 20.0), Error);
    EXPECT_THROW(net.step(-1.0), Error);
}

TEST(RcNetworkTest, NamesAreKept)
{
    RcNetwork net;
    auto n = net.addNode("cpu0", 10.0, 20.0);
    EXPECT_EQ(net.name(n), "cpu0");
}

} // namespace
} // namespace thermal
} // namespace h2p
