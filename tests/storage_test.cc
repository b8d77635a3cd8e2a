/**
 * @file
 * Unit tests for the storage module: battery, super-capacitor preset,
 * hybrid buffer (Sec. VI-B) and LED sizing (Sec. VI-C2).
 */

#include <gtest/gtest.h>

#include "storage/battery.h"
#include "storage/hybrid_buffer.h"
#include "storage/led.h"
#include "util/error.h"

namespace h2p {
namespace storage {
namespace {

// --------------------------------------------------------------- battery

TEST(BatteryTest, InitialSocRespected)
{
    BatteryParams p;
    p.capacity_wh = 100.0;
    p.initial_soc = 0.25;
    Battery b(p);
    EXPECT_DOUBLE_EQ(b.stored(), 25.0);
}

TEST(BatteryTest, ChargeAppliesEfficiency)
{
    BatteryParams p;
    p.capacity_wh = 100.0;
    p.initial_soc = 0.0;
    p.round_trip_eff = 0.8;
    p.max_charge_w = 1000.0;
    Battery b(p);
    double absorbed = b.charge(10.0, 3600.0); // 10 Wh offered
    EXPECT_DOUBLE_EQ(absorbed, 10.0);
    EXPECT_DOUBLE_EQ(b.stored(), 8.0); // 80 % round trip on charge
}

TEST(BatteryTest, ChargePowerCapped)
{
    BatteryParams p;
    p.max_charge_w = 5.0;
    p.initial_soc = 0.0;
    Battery b(p);
    double absorbed = b.charge(50.0, 3600.0);
    EXPECT_DOUBLE_EQ(absorbed, 5.0);
}

TEST(BatteryTest, ChargeStopsAtCapacity)
{
    BatteryParams p;
    p.capacity_wh = 10.0;
    p.initial_soc = 1.0;
    Battery b(p);
    EXPECT_DOUBLE_EQ(b.charge(10.0, 3600.0), 0.0);
    EXPECT_DOUBLE_EQ(b.stored(), 10.0);
}

TEST(BatteryTest, DischargeDrainsStore)
{
    BatteryParams p;
    p.capacity_wh = 100.0;
    p.initial_soc = 0.5;
    p.max_discharge_w = 1000.0;
    Battery b(p);
    double served = b.discharge(20.0, 3600.0);
    EXPECT_DOUBLE_EQ(served, 20.0);
    EXPECT_DOUBLE_EQ(b.stored(), 30.0);
}

TEST(BatteryTest, DischargeLimitedByStoredEnergy)
{
    BatteryParams p;
    p.capacity_wh = 10.0;
    p.initial_soc = 0.1; // 1 Wh stored
    p.max_discharge_w = 1000.0;
    Battery b(p);
    double served = b.discharge(100.0, 3600.0);
    EXPECT_DOUBLE_EQ(served, 1.0);
    EXPECT_DOUBLE_EQ(b.stored(), 0.0);
}

TEST(BatteryTest, SupercapPresetIsEfficientAndPowerDense)
{
    BatteryParams sc = supercapParams();
    BatteryParams bat;
    EXPECT_GT(sc.round_trip_eff, bat.round_trip_eff);
    EXPECT_GT(sc.max_charge_w, bat.max_charge_w);
    EXPECT_LT(sc.capacity_wh, bat.capacity_wh);
}

TEST(BatteryTest, RejectsBadParams)
{
    BatteryParams p;
    p.capacity_wh = 0.0;
    EXPECT_THROW(Battery{p}, Error);
    BatteryParams q;
    q.round_trip_eff = 1.5;
    EXPECT_THROW(Battery{q}, Error);
    Battery b;
    EXPECT_THROW(b.charge(-1.0, 1.0), Error);
    EXPECT_THROW(b.discharge(1.0, -1.0), Error);
}

// ---------------------------------------------------------------- buffer

TEST(HybridBufferTest, DirectPathFirst)
{
    HybridBuffer buf;
    BufferFlow f = buf.step(4.0, 4.0, 300.0);
    EXPECT_DOUBLE_EQ(f.direct_w, 4.0);
    EXPECT_DOUBLE_EQ(f.stored_w, 0.0);
    EXPECT_DOUBLE_EQ(f.served_w, 0.0);
    EXPECT_DOUBLE_EQ(f.shortfall_w, 0.0);
}

TEST(HybridBufferTest, SurplusGoesToStorage)
{
    HybridBuffer buf;
    BufferFlow f = buf.step(6.0, 2.0, 300.0);
    EXPECT_DOUBLE_EQ(f.direct_w, 2.0);
    EXPECT_NEAR(f.stored_w + f.spilled_w, 4.0, 1e-9);
    EXPECT_GT(f.stored_w, 0.0);
}

TEST(HybridBufferTest, DeficitServedFromStorage)
{
    HybridBuffer buf;
    buf.step(50.0, 0.0, 3600.0); // pre-charge
    BufferFlow f = buf.step(0.0, 5.0, 300.0);
    EXPECT_DOUBLE_EQ(f.direct_w, 0.0);
    EXPECT_NEAR(f.served_w, 5.0, 1e-9);
    EXPECT_DOUBLE_EQ(f.shortfall_w, 0.0);
}

TEST(HybridBufferTest, ShortfallWhenEmpty)
{
    BatteryParams empty_sc = supercapParams();
    empty_sc.initial_soc = 0.0;
    BatteryParams empty_bat;
    empty_bat.initial_soc = 0.0;
    HybridBuffer buf(empty_sc, empty_bat);
    BufferFlow f = buf.step(0.0, 5.0, 300.0);
    EXPECT_DOUBLE_EQ(f.served_w, 0.0);
    EXPECT_DOUBLE_EQ(f.shortfall_w, 5.0);
}

TEST(HybridBufferTest, PowerConservationBothDirections)
{
    HybridBuffer buf;
    for (double teg : {0.0, 2.0, 6.0}) {
        for (double demand : {0.0, 3.0, 8.0}) {
            BufferFlow f = buf.step(teg, demand, 300.0);
            EXPECT_NEAR(f.direct_w + f.stored_w + f.spilled_w, teg,
                        1e-9);
            EXPECT_NEAR(f.direct_w + f.served_w + f.shortfall_w,
                        demand, 1e-9);
        }
    }
}

TEST(HybridBufferTest, SupercapFillsBeforeBattery)
{
    BatteryParams sc = supercapParams();
    sc.initial_soc = 0.0;
    BatteryParams bat;
    bat.initial_soc = 0.0;
    HybridBuffer buf(sc, bat);
    buf.step(3.0, 0.0, 600.0); // 0.5 Wh surplus, fits in the SC
    EXPECT_GT(buf.supercap().stored(), 0.0);
    EXPECT_DOUBLE_EQ(buf.battery().stored(), 0.0);
}

TEST(HybridBufferTest, RejectsBadStep)
{
    HybridBuffer buf;
    EXPECT_THROW(buf.step(-1.0, 0.0, 300.0), Error);
    EXPECT_THROW(buf.step(0.0, 0.0, 0.0), Error);
}

// ------------------------------------------------------------------- LED

TEST(LedTest, OrdinaryLedCount)
{
    // Sec. VI-C2: 3+ W drives dozens of ordinary 0.05 W LEDs.
    LedParams ordinary;
    EXPECT_EQ(ledsSupported(3.0, ordinary), 60u);
}

TEST(LedTest, HighPowerLedCount)
{
    LedParams high;
    high.power_w = 1.0;
    EXPECT_EQ(ledsSupported(4.2, high), 4u);
}

TEST(LedTest, CoverageSaturatesAtOne)
{
    LedParams led;
    EXPECT_DOUBLE_EQ(lightingCoverage(100.0, 10, led), 1.0);
    EXPECT_NEAR(lightingCoverage(0.25, 10, led), 0.5, 1e-12);
}

TEST(LedTest, RejectsBadInput)
{
    LedParams led;
    EXPECT_THROW(ledsSupported(-1.0, led), Error);
    led.power_w = 0.0;
    EXPECT_THROW(ledsSupported(1.0, led), Error);
}

} // namespace
} // namespace storage
} // namespace h2p
