/**
 * @file
 * Tests for the climate model and the placement strategies, plus
 * cross-cutting property tests of the scheduling stack (work
 * conservation, harvest ordering, free-cooling boundaries).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "hydraulic/climate.h"
#include "hydraulic/plant.h"
#include "sched/consolidation.h"
#include "util/error.h"
#include "workload/cpu_power.h"

namespace h2p {
namespace {

// ---------------------------------------------------------------- climate

/** Highest hourly wet bulb of the year at @p site, C. */
double
peakWetBulb(const hydraulic::Climate &site)
{
    double peak = site.wetBulbAt(0.0);
    for (int h = 1; h < 8760; ++h)
        peak = std::max(peak, site.wetBulbAt(h));
    return peak;
}

TEST(ClimateTest, SeasonalPeakAtMidYear)
{
    hydraulic::Climate frankfurt = hydraulic::Climate::frankfurt();
    double winter = frankfurt.wetBulbAt(12.0);        // Jan 1 noon
    double summer = frankfurt.wetBulbAt(4380.0 + 12); // Jul noon
    EXPECT_GT(summer, winter + 10.0);
}

TEST(ClimateTest, DiurnalPeakMidAfternoon)
{
    hydraulic::Climate c = hydraulic::Climate::phoenix();
    // Day 182 starts at hour 4368 (= 182 * 24).
    double night = c.wetBulbAt(4368.0 + 3.0);      // 03:00
    double afternoon = c.wetBulbAt(4368.0 + 15.0); // 15:00
    EXPECT_GT(afternoon, night);
}

TEST(ClimateTest, SingaporeStaysHotAndFlat)
{
    hydraulic::Climate sg = hydraulic::Climate::singapore();
    for (int h = 0; h < 8760; h += 24) {
        double wb = sg.wetBulbAt(h);
        EXPECT_GT(wb, 21.0);
        EXPECT_LT(wb, 29.0);
    }
}

TEST(ClimateTest, RejectsOutOfRangeHour)
{
    hydraulic::Climate c;
    EXPECT_THROW(c.wetBulbAt(-1.0), Error);
    EXPECT_THROW(c.wetBulbAt(8760.0), Error);
}

TEST(ClimateTest, WarmSetpointFreesCoolingEverywhere)
{
    // At a 40 C supply, the tower handles the load at every site's
    // peak wet bulb — the H2P operating regime.
    for (const auto &site :
         {hydraulic::Climate::singapore(),
          hydraulic::Climate::frankfurt(),
          hydraulic::Climate::phoenix()}) {
        hydraulic::PlantParams pp;
        pp.wet_bulb_c = peakWetBulb(site);
        hydraulic::FacilityPlant plant(pp);
        EXPECT_FALSE(plant.power(50000.0, 40.0, 20000.0).chiller_on)
            << site.params().name;
    }
}

TEST(ClimateTest, ColdSetpointNeedsChillerInSingapore)
{
    hydraulic::PlantParams pp;
    pp.wet_bulb_c = peakWetBulb(hydraulic::Climate::singapore());
    hydraulic::FacilityPlant plant(pp);
    EXPECT_TRUE(plant.power(50000.0, 8.0, 20000.0).chiller_on);
}

// ----------------------------------------------------------- consolidation

TEST(ConsolidationTest, PreservesTotalWork)
{
    std::vector<double> utils{0.2, 0.5, 0.1, 0.4, 0.3};
    auto packed = sched::consolidate(utils, 0.8);
    double before = std::accumulate(utils.begin(), utils.end(), 0.0);
    double after =
        std::accumulate(packed.begin(), packed.end(), 0.0);
    EXPECT_NEAR(after, before, 1e-12);
}

TEST(ConsolidationTest, PacksGreedily)
{
    std::vector<double> utils{0.2, 0.2, 0.2, 0.2, 0.2};
    auto packed = sched::consolidate(utils, 0.8);
    EXPECT_NEAR(packed[0], 0.8, 1e-12);
    EXPECT_NEAR(packed[1], 0.2, 1e-12);
    EXPECT_DOUBLE_EQ(packed[2], 0.0);
}

TEST(ConsolidationTest, RespectsCap)
{
    std::vector<double> utils{0.9, 0.9, 0.9};
    auto packed = sched::consolidate(utils, 0.95);
    for (double u : packed)
        EXPECT_LE(u, 0.95 + 1e-9);
}

TEST(ConsolidationTest, OverflowSpreadsWhenCapTooLow)
{
    std::vector<double> utils{0.9, 0.9};
    auto packed = sched::consolidate(utils, 0.5);
    double total =
        std::accumulate(packed.begin(), packed.end(), 0.0);
    EXPECT_NEAR(total, 1.8, 1e-9);
    for (double u : packed)
        EXPECT_LE(u, 1.0 + 1e-9);
}

TEST(ConsolidationTest, RejectsMisuse)
{
    EXPECT_THROW(sched::consolidate({}, 0.8), Error);
    EXPECT_THROW(sched::consolidate({0.5}, 0.0), Error);
    EXPECT_THROW(sched::consolidate({0.5}, 1.5), Error);
}

// ------------------------------------------------- energy-shape properties

/** Mean utilization: the level perfect balancing gives every server. */
double
meanOf(const std::vector<double> &utils)
{
    return std::accumulate(utils.begin(), utils.end(), 0.0) /
           static_cast<double>(utils.size());
}

TEST(PlacementEnergyTest, ConcavePowerFavoursConsolidation)
{
    // Jensen's inequality on the concave Eq. 20: total CPU power of
    // a balanced placement exceeds the consolidated one for the
    // same total work.
    workload::CpuPowerModel power;
    std::vector<double> utils{0.1, 0.5, 0.3, 0.2, 0.4};
    std::vector<double> balanced(utils.size(), meanOf(utils));
    auto packed = sched::consolidate(utils, 0.8);
    auto total = [&](const std::vector<double> &us) {
        double sum = 0.0;
        for (double u : us)
            sum += power.power(u);
        return sum;
    };
    EXPECT_GT(total(balanced), total(packed));
}

TEST(PlacementEnergyTest, BalanceMinimizesPeak)
{
    std::vector<double> utils{0.1, 0.9, 0.3};
    std::vector<double> balanced(utils.size(), meanOf(utils));
    auto packed = sched::consolidate(utils, 0.8);
    auto peak = [](const std::vector<double> &us) {
        return *std::max_element(us.begin(), us.end());
    };
    EXPECT_LT(peak(balanced), peak(utils));
    EXPECT_GE(peak(packed), peak(balanced));
}

/** Parameterized cap sweep: consolidation stays a valid placement. */
class ConsolidationCapTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ConsolidationCapTest, ValidPlacementAtEveryCap)
{
    double cap = GetParam();
    std::vector<double> utils{0.15, 0.45, 0.05, 0.35, 0.25, 0.55};
    auto packed = sched::consolidate(utils, cap);
    double before = std::accumulate(utils.begin(), utils.end(), 0.0);
    double after =
        std::accumulate(packed.begin(), packed.end(), 0.0);
    EXPECT_NEAR(after, before, 1e-9);
    for (double u : packed) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Caps, ConsolidationCapTest,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 1.0));

} // namespace
} // namespace h2p
