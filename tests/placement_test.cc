/**
 * @file
 * Tests for inter-circulation placement and the bootstrap module.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "sched/placement.h"
#include "stats/bootstrap.h"
#include "stats/summary.h"
#include "tests/support/aggregates.h"
#include "util/error.h"
#include "util/random.h"

namespace h2p {
namespace {

// -------------------------------------------------------------- placement

std::vector<double>
sortedCopy(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

TEST(PlacementTest, SnakePreservesMultiset)
{
    std::vector<double> utils{0.9, 0.1, 0.5, 0.3, 0.7, 0.2};
    auto placed = sched::placeSnake(utils, 3);
    EXPECT_EQ(sortedCopy(placed), sortedCopy(utils));
}

TEST(PlacementTest, HotClusterPreservesMultiset)
{
    std::vector<double> utils{0.9, 0.1, 0.5, 0.3};
    auto placed = sched::placeHotCluster(utils, 2);
    EXPECT_EQ(sortedCopy(placed), sortedCopy(utils));
}

TEST(PlacementTest, SnakeEqualizesGroupMaxima)
{
    // 0.9 and 0.8 must land in different groups of 2.
    std::vector<double> utils{0.9, 0.8, 0.1, 0.2};
    auto placed = sched::placeSnake(utils, 2);
    double g0 = std::max(placed[0], placed[1]);
    double g1 = std::max(placed[2], placed[3]);
    EXPECT_NEAR(g0, 0.9, 1e-12);
    EXPECT_NEAR(g1, 0.8, 1e-12);
}

TEST(PlacementTest, HotClusterConcentratesMaxima)
{
    std::vector<double> utils{0.9, 0.8, 0.1, 0.2};
    auto placed = sched::placeHotCluster(utils, 2);
    // First group holds both hot jobs.
    EXPECT_NEAR(placed[0], 0.9, 1e-12);
    EXPECT_NEAR(placed[1], 0.8, 1e-12);
    // Second group is entirely cool: warm inlet available there.
    EXPECT_LE(std::max(placed[2], placed[3]), 0.2 + 1e-12);
}

TEST(PlacementTest, SnakeLowersMeanGroupMaxVsCluster)
{
    Rng rng(3);
    std::vector<double> utils;
    for (int i = 0; i < 100; ++i)
        utils.push_back(rng.uniform(0.0, 1.0));
    auto snake = sched::placeSnake(utils, 10);
    auto cluster = sched::placeHotCluster(utils, 10);
    // Snake spreads the peaks; the mean per-group max rises under
    // clustering only for the hot group, so the *worst* group max is
    // equal but the mean differs in favour of clustering's cool
    // groups.
    EXPECT_DOUBLE_EQ(test::worstGroupMax(snake, 10),
                     test::worstGroupMax(cluster, 10));
    EXPECT_GT(test::meanGroupMax(snake, 10),
              test::meanGroupMax(cluster, 10));
}

TEST(PlacementTest, GroupMaxHelpers)
{
    std::vector<double> utils{0.1, 0.9, 0.5, 0.2};
    EXPECT_DOUBLE_EQ(test::worstGroupMax(utils, 2), 0.9);
    EXPECT_DOUBLE_EQ(test::meanGroupMax(utils, 2),
                     (0.9 + 0.5) / 2.0);
}

TEST(PlacementTest, GroupSizeLargerThanSetIsOneGroup)
{
    std::vector<double> utils{0.4, 0.6};
    auto placed = sched::placeSnake(utils, 10);
    EXPECT_EQ(sortedCopy(placed), sortedCopy(utils));
    EXPECT_DOUBLE_EQ(test::worstGroupMax(utils, 10), 0.6);
}

TEST(PlacementTest, RejectsMisuse)
{
    EXPECT_THROW(sched::placeSnake({}, 2), Error);
    EXPECT_THROW(sched::placeSnake({0.5}, 0), Error);
    EXPECT_THROW(sched::placeHotCluster({}, 2), Error);
}

// -------------------------------------------------------------- bootstrap

TEST(BootstrapTest, MeanCiCoversTruth)
{
    Rng rng(11);
    std::vector<double> samples;
    for (int i = 0; i < 400; ++i)
        samples.push_back(rng.normal(10.0, 2.0));
    Rng boot_rng(12);
    auto ci = stats::bootstrapMeanCi(samples, boot_rng);
    EXPECT_NEAR(ci.point, 10.0, 0.3);
    EXPECT_LT(ci.lo, ci.point);
    EXPECT_GT(ci.hi, ci.point);
    EXPECT_LT(ci.lo, 10.0);
    EXPECT_GT(ci.hi, 10.0);
    // For n=400, sigma=2: CI half-width ~ 1.96 * 2/20 = 0.2.
    EXPECT_NEAR(ci.hi - ci.lo, 0.4, 0.15);
}

TEST(BootstrapTest, NarrowerWithMoreData)
{
    Rng rng(13);
    std::vector<double> small, large;
    for (int i = 0; i < 2000; ++i) {
        double x = rng.normal(0.0, 1.0);
        if (i < 100)
            small.push_back(x);
        large.push_back(x);
    }
    Rng r1(1), r2(1);
    auto ci_small = stats::bootstrapMeanCi(small, r1);
    auto ci_large = stats::bootstrapMeanCi(large, r2);
    EXPECT_LT(ci_large.hi - ci_large.lo, ci_small.hi - ci_small.lo);
}

TEST(BootstrapTest, CustomStatistic)
{
    std::vector<double> samples{1, 2, 3, 4, 100};
    Rng rng(7);
    auto ci = stats::bootstrapCi(
        samples,
        [](const std::vector<double> &xs) {
            return stats::percentile(xs, 50.0);
        },
        0.9, 200, rng);
    EXPECT_GE(ci.point, 1.0);
    EXPECT_LE(ci.point, 100.0);
    EXPECT_LE(ci.lo, ci.hi);
}

TEST(BootstrapTest, DeterministicForSeededRng)
{
    std::vector<double> samples{1, 2, 3, 4, 5, 6, 7, 8};
    Rng a(3), b(3);
    auto ca = stats::bootstrapMeanCi(samples, a);
    auto cb = stats::bootstrapMeanCi(samples, b);
    EXPECT_DOUBLE_EQ(ca.lo, cb.lo);
    EXPECT_DOUBLE_EQ(ca.hi, cb.hi);
}

TEST(BootstrapTest, RejectsMisuse)
{
    Rng rng(1);
    EXPECT_THROW(stats::bootstrapMeanCi({1.0}, rng), Error);
    std::vector<double> ok{1.0, 2.0};
    EXPECT_THROW(
        stats::bootstrapCi(ok, stats::meanStatistic, 1.5, 100, rng),
        Error);
    EXPECT_THROW(
        stats::bootstrapCi(ok, stats::meanStatistic, 0.9, 5, rng),
        Error);
}

} // namespace
} // namespace h2p
