/**
 * @file
 * Tests for the extension modules beyond the paper's core
 * evaluation: TEG materials (Sec. VI-D), the EWMA predictor, district
 * heating economics (Sec. II-C), the DC-bus path (Sec. VI-D), trace
 * statistics and the cooling-lag experiment (Sec. I).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/cooling_lag.h"
#include "econ/district_heating.h"
#include "sched/predictor.h"
#include "storage/dc_bus.h"
#include "thermal/teg_material.h"
#include "util/error.h"
#include "workload/trace_gen.h"
#include "workload/trace_stats.h"

namespace h2p {
namespace {

// ----------------------------------------------------------- materials

TEST(TegMaterialTest, EfficiencyBelowCarnot)
{
    for (double zt : {0.5, 1.0, 2.0, 6.0, 50.0}) {
        double eta = thermal::tegEfficiency(zt, 45.0, 20.0);
        EXPECT_GT(eta, 0.0) << "zt=" << zt;
        EXPECT_LT(eta, thermal::carnotEfficiency(45.0, 20.0));
    }
}

TEST(TegMaterialTest, EfficiencyApproachesCarnotAtHugeZt)
{
    double carnot = thermal::carnotEfficiency(45.0, 20.0);
    EXPECT_NEAR(thermal::tegEfficiency(1e9, 45.0, 20.0), carnot,
                0.01 * carnot);
}

TEST(TegMaterialTest, EfficiencyGrowsWithZt)
{
    double prev = 0.0;
    for (double zt : {0.5, 1.0, 2.0, 4.0, 6.0}) {
        double eta = thermal::tegEfficiency(zt, 45.0, 20.0);
        EXPECT_GT(eta, prev);
        prev = eta;
    }
}

TEST(TegMaterialTest, NoGradientNoOutput)
{
    EXPECT_DOUBLE_EQ(thermal::tegEfficiency(1.0, 20.0, 20.0), 0.0);
    EXPECT_DOUBLE_EQ(thermal::tegEfficiency(1.0, 15.0, 20.0), 0.0);
    EXPECT_DOUBLE_EQ(thermal::carnotEfficiency(15.0, 20.0), 0.0);
}

TEST(TegMaterialTest, Bi2Te3EfficiencyNearPaperFivePercent)
{
    // Sec. VI-D: "the conversion efficiency is approximately 5 %" —
    // at the full junction gradient. At the module's 25 C coolant
    // gradient, the ideal-material bound is ~1-2 %.
    double eta_junction = thermal::tegEfficiency(1.0, 120.0, 20.0);
    EXPECT_GT(eta_junction, 0.04);
    EXPECT_LT(eta_junction, 0.07);
}

TEST(TegMaterialTest, ScalingIsIdentityForSameMaterial)
{
    thermal::TegParams base;
    auto same = thermal::scaleToMaterial(
        base, thermal::TegMaterial::bismuthTelluride(),
        thermal::TegMaterial::bismuthTelluride());
    EXPECT_DOUBLE_EQ(same.voc_slope, base.voc_slope);
    EXPECT_DOUBLE_EQ(same.pfit_a, base.pfit_a);
}

TEST(TegMaterialTest, HeuslerScalingIsConsistent)
{
    thermal::TegParams base;
    auto heusler = thermal::scaleToMaterial(
        base, thermal::TegMaterial::bismuthTelluride(),
        thermal::TegMaterial::heuslerAlloy());
    double ratio = heusler.pfit_a / base.pfit_a;
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 6.0);
    // Voltage scales with the square root of the power ratio.
    EXPECT_NEAR(heusler.voc_slope / base.voc_slope,
                std::sqrt(ratio), 1e-9);
}

// ------------------------------------------------------------ predictor

TEST(PredictorTest, ConvergesToConstantSignal)
{
    sched::EwmaPredictor p(1);
    for (int i = 0; i < 100; ++i)
        p.observe({0.3});
    EXPECT_NEAR(p.mean(0), 0.3, 1e-6);
    EXPECT_NEAR(p.stddev(0), 0.0, 1e-3);
    EXPECT_NEAR(p.upperBound(0), 0.3, 1e-2);
}

TEST(PredictorTest, MarginCoversVolatileSignal)
{
    sched::EwmaPredictor p(1);
    Rng rng(5);
    double violations = 0.0;
    const int steps = 500;
    for (int i = 0; i < steps; ++i) {
        double u = rng.truncNormal(0.4, 0.1, 0.0, 1.0);
        if (i > 50 && u > p.upperBound(0))
            violations += 1.0;
        p.observe({u});
    }
    // A 2-sigma bound should cover ~97 % of draws.
    EXPECT_LT(violations / steps, 0.08);
}

TEST(PredictorTest, UpperBoundClampedToUnit)
{
    sched::PredictorParams params;
    params.kappa = 100.0;
    sched::EwmaPredictor p(1, params);
    p.observe({0.9});
    p.observe({0.1});
    EXPECT_LE(p.upperBound(0), 1.0);
}

TEST(PredictorTest, RangeAggregates)
{
    sched::EwmaPredictor p(3);
    for (int i = 0; i < 50; ++i)
        p.observe({0.1, 0.5, 0.9});
    EXPECT_GT(p.maxUpperBound(0, 3), 0.85);
    EXPECT_LT(p.maxUpperBound(0, 1), 0.2);
}

TEST(PredictorTest, RejectsMisuse)
{
    EXPECT_THROW(sched::EwmaPredictor(0), Error);
    sched::PredictorParams bad;
    bad.alpha = 0.0;
    EXPECT_THROW(sched::EwmaPredictor(1, bad), Error);
    sched::EwmaPredictor p(2);
    EXPECT_THROW(p.observe({0.5}), Error);
    EXPECT_THROW(p.mean(5), Error);
    EXPECT_THROW(p.maxUpperBound(1, 1), Error);
}

TEST(PredictorTest, StateRoundTripsThroughArchive)
{
    sched::EwmaPredictor p(3);
    p.observe({0.1, 0.5, 0.9});
    p.observe({0.3, 0.2, 0.8});
    util::ByteWriter w;
    util::Archive save(w);
    p.visit(save);

    sched::EwmaPredictor q(3);
    util::ByteReader r(w.data(), 0, w.data().size());
    util::Archive load(r);
    q.visit(load);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(q.observations(), 2u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(q.mean(i), p.mean(i));
        EXPECT_EQ(q.stddev(i), p.stddev(i));
    }

    // A predictor over a different fleet refuses the state.
    sched::EwmaPredictor other(4);
    util::ByteReader r2(w.data(), 0, w.data().size());
    util::Archive load2(r2);
    EXPECT_THROW(other.visit(load2), Error);
}

// ----------------------------------------------------- district heating

TEST(DistrictHeatingTest, SellabilityThreshold)
{
    econ::DistrictHeatingModel dhs;
    EXPECT_FALSE(dhs.sellable(40.0));
    EXPECT_TRUE(dhs.sellable(45.0));
    EXPECT_DOUBLE_EQ(dhs.grossRevenuePerServerMonth(100.0, 40.0),
                     0.0);
}

TEST(DistrictHeatingTest, RevenueScalesWithDemandFactor)
{
    econ::DistrictHeatingParams p;
    p.demand_factor = 0.4;
    econ::DistrictHeatingModel mid(p);
    p.demand_factor = 0.8;
    econ::DistrictHeatingModel high(p);
    EXPECT_NEAR(high.grossRevenuePerServerMonth(50.0, 50.0),
                2.0 * mid.grossRevenuePerServerMonth(50.0, 50.0),
                1e-9);
}

TEST(DistrictHeatingTest, NetSubtractsPiping)
{
    econ::DistrictHeatingModel dhs;
    double gross = dhs.grossRevenuePerServerMonth(50.0, 50.0);
    EXPECT_NEAR(dhs.netRevenuePerServerMonth(50.0, 50.0),
                gross - dhs.params().piping_capex_per_server_month,
                1e-12);
}

TEST(DistrictHeatingTest, TropicsLoseMidLatitudeCompetitive)
{
    // The paper's geography argument, in numbers.
    econ::DistrictHeatingParams p;
    p.demand_factor = 0.05; // tropics
    econ::DistrictHeatingModel tropics(p);
    auto r = tropics.compare(40.0, 50.0, 0.39, 0.04);
    EXPECT_LT(r.heat_net, 0.0);
    EXPECT_GT(r.teg_net, r.heat_net);

    p.demand_factor = 0.9; // real DH grid
    econ::DistrictHeatingModel arctic(p);
    auto r2 = arctic.compare(40.0, 50.0, 0.39, 0.04);
    EXPECT_GT(r2.heat_net, r2.teg_net);
}

// ---------------------------------------------------------------- DC bus

TEST(DcBusTest, PathEfficiencyIsProduct)
{
    storage::PowerPath p;
    p.addStage("a", 0.9).addStage("b", 0.5);
    EXPECT_NEAR(p.efficiency(), 0.45, 1e-12);
    EXPECT_NEAR(p.deliver(10.0), 4.5, 1e-12);
}

TEST(DcBusTest, EmptyPathIsLossless)
{
    storage::PowerPath p;
    EXPECT_DOUBLE_EQ(p.efficiency(), 1.0);
}

TEST(DcBusTest, DcBeatsConventionalAc)
{
    auto ac = storage::PowerPath::conventionalAc();
    auto dc = storage::PowerPath::dcBus();
    EXPECT_GT(dc.efficiency(), ac.efficiency());
    EXPECT_LT(ac.efficiency(), 0.85);
    EXPECT_GT(dc.efficiency(), 0.95);
    EXPECT_EQ(ac.stages().size(), 3u);
    EXPECT_EQ(dc.stages().size(), 1u);
}

TEST(DcBusTest, RejectsBadStage)
{
    storage::PowerPath p;
    EXPECT_THROW(p.addStage("bad", 0.0), Error);
    EXPECT_THROW(p.addStage("bad", 1.5), Error);
    EXPECT_THROW(p.deliver(-1.0), Error);
}

// ------------------------------------------------------------ trace stats

TEST(TraceStatsTest, ConstantTrace)
{
    workload::UtilizationTrace t(3, 300.0);
    for (int i = 0; i < 10; ++i)
        t.addStep({0.4, 0.4, 0.4});
    auto s = workload::characterize(t);
    EXPECT_NEAR(s.mean, 0.4, 1e-12);
    EXPECT_NEAR(s.stddev, 0.0, 1e-12);
    EXPECT_NEAR(s.volatility, 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.peak, 0.4);
    EXPECT_DOUBLE_EQ(s.burst_fraction, 0.0);
}

TEST(TraceStatsTest, ProfilesSeparateAsThePaperDescribes)
{
    workload::TraceGenerator gen(2020);
    auto d = workload::characterize(
        gen.generateProfile(workload::TraceProfile::Drastic, 50));
    auto i = workload::characterize(
        gen.generateProfile(workload::TraceProfile::Irregular, 50));
    auto c = workload::characterize(
        gen.generateProfile(workload::TraceProfile::Common, 50));
    // "drastic and frequent fluctuations"
    EXPECT_GT(d.volatility, 2.0 * i.volatility);
    EXPECT_GT(d.stddev, c.stddev);
    // "occasional high peaks"
    EXPECT_GT(i.peak, 0.7);
    EXPECT_GT(i.burst_fraction, 0.0);
    // "very little fluctuations"
    EXPECT_LT(c.volatility, 0.03);
}

TEST(TraceStatsTest, AutocorrelationPositiveForSmoothTraces)
{
    workload::TraceGenerator gen(7);
    auto c = workload::characterize(
        gen.generateProfile(workload::TraceProfile::Common, 30));
    EXPECT_GT(c.autocorr1, 0.5); // slow OU -> strongly correlated
}

TEST(TraceStatsTest, RejectsTooShortTrace)
{
    workload::UtilizationTrace t(2, 300.0);
    t.addStep({0.5, 0.5});
    EXPECT_THROW(workload::characterize(t), Error);
}

// ------------------------------------------------------------ cooling lag

TEST(CoolingLagTest, ChillerOnlyOverheatsTecDoesNot)
{
    // The paper's motivating failure: on a > 50 C loop a sudden
    // 100 % spike exceeds the vendor maximum during the chiller's
    // response lag; the TEC path never does.
    core::CoolingLagResult r = core::runCoolingLag();
    EXPECT_GT(r.chiller_overheat_s, 30.0);
    EXPECT_GT(r.chiller_peak_c, 78.9);
    EXPECT_DOUBLE_EQ(r.tec_overheat_s, 0.0);
    EXPECT_LT(r.tec_peak_c, 78.9);
    EXPECT_GT(r.tec_energy_wh, 0.0);
}

TEST(CoolingLagTest, ChillerEventuallyRecovers)
{
    core::CoolingLagResult r = core::runCoolingLag();
    EXPECT_LT(r.samples.back().die_chiller_c, 70.0);
    EXPECT_LT(r.samples.back().supply_chiller_c, 35.0);
}

TEST(CoolingLagTest, NoSpikeNoProblem)
{
    core::CoolingLagParams p;
    p.util_after = p.util_before;
    core::CoolingLagResult r = core::runCoolingLag(p);
    EXPECT_DOUBLE_EQ(r.chiller_overheat_s, 0.0);
    EXPECT_DOUBLE_EQ(r.tec_overheat_s, 0.0);
}

TEST(CoolingLagTest, LongerDeadtimeWorsensOverheat)
{
    core::CoolingLagParams fast;
    fast.chiller_deadtime_s = 30.0;
    core::CoolingLagParams slow;
    slow.chiller_deadtime_s = 240.0;
    EXPECT_LT(core::runCoolingLag(fast).chiller_overheat_s,
              core::runCoolingLag(slow).chiller_overheat_s);
}

TEST(CoolingLagTest, RejectsBadParams)
{
    core::CoolingLagParams p;
    p.dt_s = 0.0;
    EXPECT_THROW(core::runCoolingLag(p), Error);
    core::CoolingLagParams q;
    q.tec_on_c = 60.0;
    q.tec_off_c = 65.0;
    EXPECT_THROW(core::runCoolingLag(q), Error);
}

} // namespace
} // namespace h2p
