/**
 * @file
 * Unit tests for the hydraulic module: pump, chiller (Eq. 10-11),
 * cooling tower, heat exchanger and facility plant.
 */

#include <gtest/gtest.h>

#include "hydraulic/chiller.h"
#include "hydraulic/cooling_tower.h"
#include "hydraulic/plant.h"
#include "hydraulic/pump.h"
#include "util/error.h"
#include "util/units.h"

namespace h2p {
namespace hydraulic {
namespace {

// ------------------------------------------------------------------ pump

TEST(PumpTest, AffinityLawIsCubic)
{
    Pump pump;
    const auto &p = pump.params();
    double at_rated = pump.power(p.rated_flow_lph);
    double at_half = pump.power(p.rated_flow_lph / 2.0);
    EXPECT_NEAR(at_rated - p.idle_power_w, p.rated_power_w, 1e-12);
    EXPECT_NEAR(at_half - p.idle_power_w, p.rated_power_w / 8.0,
                1e-12);
}

TEST(PumpTest, IdleFloorAtZeroFlow)
{
    Pump pump;
    EXPECT_DOUBLE_EQ(pump.power(0.0), pump.params().idle_power_w);
}

TEST(PumpTest, ClampsToMaxFlow)
{
    Pump pump;
    double cap = pump.params().max_flow_lph;
    EXPECT_DOUBLE_EQ(pump.power(cap * 10.0), pump.power(cap));
    EXPECT_DOUBLE_EQ(pump.clampFlow(-5.0), 0.0);
    EXPECT_DOUBLE_EQ(pump.clampFlow(cap + 1.0), cap);
}

TEST(PumpTest, RejectsBadParams)
{
    PumpParams p;
    p.rated_flow_lph = 0.0;
    EXPECT_THROW(Pump{p}, Error);
    PumpParams q;
    q.max_flow_lph = q.rated_flow_lph - 1.0;
    EXPECT_THROW(Pump{q}, Error);
}

// --------------------------------------------------------------- chiller

TEST(ChillerTest, ElectricPowerIsHeatOverCop)
{
    Chiller ch;
    EXPECT_NEAR(ch.electricPower(360.0), 100.0, 1e-9); // COP 3.6
}

TEST(ChillerTest, CoolingLoadMatchesStreamFormula)
{
    // 50 L/H cooled by 2 C: (50/3600)*4200*2 = 116.67 W.
    EXPECT_NEAR(Chiller::coolingLoad(2.0, 50.0), 116.667, 0.01);
}

TEST(ChillerTest, EnergyToCoolMatchesEq10)
{
    // Eq. 10: E = C_water * dT * n * f * t * rho / COP.
    Chiller ch;
    double dt = 2.0;
    int n = 10;
    double f = 50.0;
    double secs = 3600.0;
    double expected =
        units::kWaterHeatCapacity * dt * n * (f / 3600.0) * secs / 3.6;
    EXPECT_NEAR(ch.energyToCool(dt, n, f, secs), expected, 1e-6);
}

TEST(ChillerTest, ZeroReductionCostsNothing)
{
    Chiller ch;
    EXPECT_DOUBLE_EQ(ch.energyToCool(0.0, 100, 50.0, 3600.0), 0.0);
}

TEST(ChillerTest, RejectsBadInput)
{
    Chiller ch;
    EXPECT_THROW(ch.electricPower(-1.0), Error);
    EXPECT_THROW(ch.energyToCool(-1.0, 10, 50.0, 10.0), Error);
    ChillerParams p;
    p.cop = 0.0;
    EXPECT_THROW(Chiller{p}, Error);
}

// ----------------------------------------------------------------- tower

TEST(CoolingTowerTest, ApproachLimitsLeavingTemp)
{
    CoolingTower tower;
    EXPECT_DOUBLE_EQ(tower.minLeavingTemp(18.0),
                     18.0 + tower.params().approach_c);
}

TEST(CoolingTowerTest, FanPowerProportionalToHeat)
{
    CoolingTower tower;
    EXPECT_NEAR(tower.fanPower(10000.0),
                10000.0 * tower.params().fan_power_per_watt, 1e-9);
    EXPECT_DOUBLE_EQ(tower.fanPower(0.0), 0.0);
    EXPECT_THROW(tower.fanPower(-1.0), Error);
}

// ----------------------------------------------------------------- plant

TEST(PlantTest, FreeCoolingAboveThreshold)
{
    FacilityPlant plant; // wet bulb 18, approach 4, CDU 2 -> 24 C
    EXPECT_DOUBLE_EQ(plant.freeCoolingLimit(), 24.0);
    PlantPower p = plant.power(50000.0, 40.0, 20000.0);
    EXPECT_FALSE(p.chiller_on);
    EXPECT_DOUBLE_EQ(p.chiller_w, 0.0);
    EXPECT_GT(p.tower_w, 0.0);
}

TEST(PlantTest, ChillerEngagesBelowThreshold)
{
    FacilityPlant plant;
    PlantPower p = plant.power(50000.0, 10.0, 20000.0);
    EXPECT_TRUE(p.chiller_on);
    EXPECT_GT(p.chiller_w, 0.0);
}

TEST(PlantTest, ColderSupplyCostsMore)
{
    FacilityPlant plant;
    double prev = -1.0;
    for (double t : {40.0, 24.0, 20.0, 15.0, 10.0, 7.0}) {
        double w = plant.power(100000.0, t, 50000.0).total();
        EXPECT_GE(w, prev) << "supply " << t;
        prev = w;
    }
}

TEST(PlantTest, WarmWaterSavingIsLarge)
{
    // Sec. I: raising 7-10 C supply to 18-20+ C saves a large
    // fraction of cooling energy. With our defaults the chiller
    // disengages entirely at warm setpoints.
    FacilityPlant plant;
    double cold = plant.power(100000.0, 8.0, 50000.0).total();
    double warm = plant.power(100000.0, 26.0, 50000.0).total();
    EXPECT_LT(warm, 0.6 * cold);
}

TEST(PlantTest, RejectsBadInput)
{
    FacilityPlant plant;
    EXPECT_THROW(plant.power(-1.0, 30.0, 100.0), Error);
    EXPECT_THROW(plant.power(100.0, 30.0, 0.0), Error);
}

} // namespace
} // namespace hydraulic
} // namespace h2p
