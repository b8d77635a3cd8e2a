/**
 * @file
 * Unit tests for the stats module: summaries, histograms, regression,
 * integration, the normal distribution and order statistics
 * (paper Eq. 13-18).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/histogram.h"
#include "stats/integrate.h"
#include "stats/normal.h"
#include "stats/order_stats.h"
#include "stats/regression.h"
#include "stats/summary.h"
#include "util/error.h"

namespace h2p {
namespace stats {
namespace {

// -------------------------------------------------------------- summary

TEST(RunningStatsTest, MatchesDirectComputation)
{
    RunningStats s;
    std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double x : xs)
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12); // unbiased
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyIsWellDefined)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_TRUE(std::isnan(s.min()));
}

TEST(RunningStatsTest, MergeEqualsCombinedStream)
{
    RunningStats a, b, whole;
    for (int i = 0; i < 50; ++i) {
        double x = std::sin(i * 0.7) * 3.0 + i * 0.1;
        (i < 20 ? a : b).add(x);
        whole.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmpty)
{
    RunningStats a, empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks)
{
    std::vector<double> xs{10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
    EXPECT_THROW(percentile({}, 50.0), Error);
    EXPECT_THROW(percentile(xs, 101.0), Error);
}

// ------------------------------------------------------------ histogram

TEST(HistogramTest, BinsAndEdgeSaturation)
{
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bin 0
    h.add(9.99);  // bin 4
    h.add(-3.0);  // clamped to bin 0
    h.add(42.0);  // clamped to bin 4
    h.add(5.0);   // bin 2
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.binCount(4), 2u);
    EXPECT_DOUBLE_EQ(h.binLo(2), 4.0);
    EXPECT_DOUBLE_EQ(h.binHi(2), 6.0);
}

TEST(HistogramTest, RejectsBadConstruction)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), Error);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

// ------------------------------------------------------------ regression

TEST(LinearFitTest, RecoversExactLine)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(i);
        ys.push_back(0.0448 * i - 0.0051); // the paper's Eq. 3
    }
    LinearFit fit = fitLinear(xs, ys);
    EXPECT_NEAR(fit.slope, 0.0448, 1e-12);
    EXPECT_NEAR(fit.intercept, -0.0051, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFitTest, R2DropsWithNoise)
{
    std::vector<double> xs{0, 1, 2, 3, 4, 5};
    std::vector<double> ys{0.0, 1.4, 1.6, 3.5, 3.6, 5.2};
    LinearFit fit = fitLinear(xs, ys);
    EXPECT_GT(fit.r2, 0.9);
    EXPECT_LT(fit.r2, 1.0);
}

TEST(LinearFitTest, RejectsDegenerateInput)
{
    EXPECT_THROW(fitLinear({1.0}, {1.0}), Error);
    EXPECT_THROW(fitLinear({2.0, 2.0}, {1.0, 3.0}), Error);
    EXPECT_THROW(fitLinear({1, 2}, {1}), Error);
}

TEST(QuadraticFitTest, RecoversPaperPowerFit)
{
    // Eq. 6: P = 0.0003 dT^2 - 0.0003 dT + 0.0011.
    std::vector<double> xs, ys;
    for (int i = 0; i <= 25; i += 1) {
        xs.push_back(i);
        ys.push_back(0.0003 * i * i - 0.0003 * i + 0.0011);
    }
    QuadraticFit fit = fitQuadratic(xs, ys);
    EXPECT_NEAR(fit.a, 0.0003, 1e-10);
    EXPECT_NEAR(fit.b, -0.0003, 1e-9);
    EXPECT_NEAR(fit.c, 0.0011, 1e-9);
    EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(QuadraticFitTest, RejectsTooFewPoints)
{
    EXPECT_THROW(fitQuadratic({1, 2}, {1, 2}), Error);
}

TEST(LogShiftedFitTest, RecoversPaperCpuPowerFit)
{
    // Eq. 20: P = 109.71 ln(u + 1.17) - 7.83.
    std::vector<double> us, ps;
    for (double u = 0.0; u <= 1.0; u += 0.05) {
        us.push_back(u);
        ps.push_back(109.71 * std::log(u + 1.17) - 7.83);
    }
    LinearFit fit = fitLogShifted(us, ps, 1.17);
    EXPECT_NEAR(fit.slope, 109.71, 1e-9);
    EXPECT_NEAR(fit.intercept, -7.83, 1e-9);
}

TEST(RmseTest, KnownValue)
{
    EXPECT_DOUBLE_EQ(rmse({1.0, 2.0}, {1.0, 4.0}), std::sqrt(2.0));
    EXPECT_THROW(rmse({}, {}), Error);
}

// ------------------------------------------------------------- integrate

TEST(SimpsonTest, ExactForCubicPolynomials)
{
    // Simpson integrates cubics exactly.
    auto f = [](double x) { return x * x * x - 2.0 * x + 1.0; };
    double got = simpson(f, 0.0, 2.0, 2);
    double want = 4.0 - 4.0 + 2.0; // x^4/4 - x^2 + x on [0,2]
    EXPECT_NEAR(got, want, 1e-12);
}

TEST(AdaptiveSimpsonTest, MatchesKnownIntegrals)
{
    EXPECT_NEAR(adaptiveSimpson([](double x) { return std::sin(x); },
                                0.0, M_PI),
                2.0, 1e-8);
    EXPECT_NEAR(adaptiveSimpson([](double x) { return std::exp(-x); },
                                0.0, 20.0),
                1.0, 1e-8);
    EXPECT_DOUBLE_EQ(adaptiveSimpson([](double) { return 1.0; }, 3.0,
                                     3.0),
                     0.0);
}

TEST(SimpsonTest, RejectsNonPositiveIntervals)
{
    EXPECT_THROW(simpson([](double) { return 1.0; }, 0, 1, 0), Error);
}

// ---------------------------------------------------------------- normal

TEST(NormalTest, StandardValues)
{
    Normal n(0.0, 1.0);
    EXPECT_NEAR(n.pdf(0.0), 0.3989422804014327, 1e-12);
    EXPECT_NEAR(n.cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(n.cdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(n.cdf(-1.959963985), 0.025, 1e-6);
}

TEST(NormalTest, ShiftAndScale)
{
    Normal n(55.0, 6.0);
    EXPECT_NEAR(n.cdf(55.0), 0.5, 1e-12);
    EXPECT_NEAR(n.cdf(61.0), Normal(0, 1).cdf(1.0), 1e-12);
    EXPECT_NEAR(n.pdf(55.0), 0.3989422804014327 / 6.0, 1e-12);
}

TEST(NormalTest, QuantileInvertsCdf)
{
    Normal n(10.0, 3.0);
    for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 0.999}) {
        double x = n.quantile(p);
        EXPECT_NEAR(n.cdf(x), p, 1e-9) << "p=" << p;
    }
    EXPECT_THROW(n.quantile(0.0), Error);
    EXPECT_THROW(n.quantile(1.0), Error);
}

TEST(NormalTest, RejectsBadSigma)
{
    EXPECT_THROW(Normal(0.0, 0.0), Error);
    EXPECT_THROW(Normal(0.0, -1.0), Error);
}

TEST(NormalTest, PdfIntegratesToOne)
{
    Normal n(2.0, 1.5);
    double total = adaptiveSimpson([&](double x) { return n.pdf(x); },
                                   2.0 - 12.0 * 1.5, 2.0 + 12.0 * 1.5);
    EXPECT_NEAR(total, 1.0, 1e-8);
}

// ------------------------------------------------------------ order stats

TEST(OrderStatsTest, SingleSampleIsBase)
{
    Normal base(55.0, 6.0);
    NormalMaxOrderStat m(base, 1);
    EXPECT_NEAR(m.mean(), 55.0, 1e-9);
    EXPECT_NEAR(m.cdf(55.0), 0.5, 1e-12);
}

TEST(OrderStatsTest, MaxOfTwoKnownClosedForm)
{
    // E[max(X1, X2)] = mu + sigma/sqrt(pi) for iid normals.
    Normal base(0.0, 1.0);
    NormalMaxOrderStat m(base, 2);
    EXPECT_NEAR(m.mean(), 1.0 / std::sqrt(M_PI), 1e-7);
}

TEST(OrderStatsTest, MaxOfThreeKnownClosedForm)
{
    // E[max of 3] = 3 sigma / (2 sqrt(pi)).
    Normal base(0.0, 1.0);
    NormalMaxOrderStat m(base, 3);
    EXPECT_NEAR(m.mean(), 1.5 / std::sqrt(M_PI), 1e-7);
}

TEST(OrderStatsTest, PdfIntegratesToOne)
{
    Normal base(55.0, 6.0);
    NormalMaxOrderStat m(base, 50);
    double total = adaptiveSimpson([&](double x) { return m.pdf(x); },
                                   55.0 - 72.0, 55.0 + 72.0);
    EXPECT_NEAR(total, 1.0, 1e-7);
}

TEST(OrderStatsTest, MeanGrowsWithN)
{
    Normal base(55.0, 6.0);
    double prev = -1e9;
    for (size_t n : {1u, 2u, 5u, 20u, 100u, 1000u}) {
        double mean = NormalMaxOrderStat(base, n).mean();
        EXPECT_GT(mean, prev) << "n=" << n;
        prev = mean;
    }
}

TEST(OrderStatsTest, QuantileMatchesCdf)
{
    Normal base(0.0, 1.0);
    NormalMaxOrderStat m(base, 10);
    for (double p : {0.1, 0.5, 0.9}) {
        double x = m.quantile(p);
        EXPECT_NEAR(m.cdf(x), p, 1e-9);
    }
}

TEST(OrderStatsTest, CoolingReductionClampsAtZero)
{
    Normal cool(40.0, 2.0); // far below T_safe
    EXPECT_DOUBLE_EQ(
        expectedCoolingReduction(cool, 100, 63.0, 1.2), 0.0);
}

TEST(OrderStatsTest, CoolingReductionMatchesEq18)
{
    Normal temp(60.0, 6.0);
    size_t n = 50;
    double t_safe = 63.0, k = 1.2;
    double e_max = NormalMaxOrderStat(temp, n).mean();
    ASSERT_GT(e_max, t_safe);
    EXPECT_NEAR(expectedCoolingReduction(temp, n, t_safe, k),
                (e_max - t_safe) / k, 1e-9);
}

/** Parameterized sweep: E[T_(n)] sits between mu and mu + sigma *
 * sqrt(2 ln n) (the standard asymptotic upper bound) for all n. */
class OrderStatBoundTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(OrderStatBoundTest, MeanWithinTheoreticalBounds)
{
    size_t n = GetParam();
    Normal base(55.0, 6.0);
    double mean = NormalMaxOrderStat(base, n).mean();
    EXPECT_GE(mean, 55.0 - 1e-9);
    if (n > 1) {
        double bound =
            55.0 + 6.0 * std::sqrt(2.0 * std::log(double(n)));
        EXPECT_LE(mean, bound + 1e-9) << "n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrderStatBoundTest,
                         ::testing::Values(1, 2, 4, 8, 16, 50, 125, 250,
                                           500, 1000));

} // namespace
} // namespace stats
} // namespace h2p
