/**
 * @file
 * Tests for the job-level workload model and the discounted-cash-flow
 * economics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "econ/npv.h"
#include "tests/support/aggregates.h"
#include "util/error.h"
#include "workload/jobs.h"

namespace h2p {
namespace workload {
namespace {

JobStreamParams
quickStream()
{
    JobStreamParams p;
    p.arrival_rate_hz = 0.05;
    p.duration_median_s = 1200.0;
    return p;
}

TEST(JobGenTest, ArrivalsSortedAndWithinWindow)
{
    Rng rng(3);
    auto jobs = generateJobs(quickStream(), 7200.0, rng);
    ASSERT_FALSE(jobs.empty());
    double prev = 0.0;
    for (const auto &j : jobs) {
        EXPECT_GE(j.arrival_s, prev);
        EXPECT_LT(j.arrival_s, 7200.0);
        EXPECT_GT(j.duration_s, 0.0);
        EXPECT_GE(j.demand, quickStream().demand_min);
        EXPECT_LE(j.demand, quickStream().demand_max);
        prev = j.arrival_s;
    }
}

TEST(JobGenTest, CountMatchesRate)
{
    Rng rng(5);
    auto jobs = generateJobs(quickStream(), 100000.0, rng);
    // Poisson with mean 0.05 * 100000 = 5000.
    EXPECT_NEAR(static_cast<double>(jobs.size()), 5000.0, 300.0);
}

TEST(JobGenTest, DurationMedianApproximate)
{
    Rng rng(7);
    auto jobs = generateJobs(quickStream(), 200000.0, rng);
    std::vector<double> durations;
    for (const auto &j : jobs)
        durations.push_back(j.duration_s);
    std::sort(durations.begin(), durations.end());
    double median = durations[durations.size() / 2];
    EXPECT_NEAR(median, 1200.0, 150.0);
}

TEST(JobGenTest, RejectsBadParams)
{
    Rng rng(1);
    JobStreamParams p = quickStream();
    p.arrival_rate_hz = 0.0;
    EXPECT_THROW(generateJobs(p, 100.0, rng), Error);
    JobStreamParams q = quickStream();
    q.demand_max = 1.5;
    EXPECT_THROW(generateJobs(q, 100.0, rng), Error);
}

TEST(JobSimTest, TraceShapeAndBounds)
{
    Rng rng(9);
    auto jobs = generateJobs(quickStream(), 3600.0, rng);
    Rng place(1);
    auto sim = simulateJobs(jobs, 20, JobPlacement::LeastLoaded,
                            3600.0, 300.0, place);
    EXPECT_EQ(sim.trace.numServers(), 20u);
    EXPECT_EQ(sim.trace.numSteps(), 12u);
    for (size_t s = 0; s < sim.trace.numSteps(); ++s) {
        for (size_t i = 0; i < 20; ++i) {
            double u = sim.trace.util(s, i);
            EXPECT_GE(u, 0.0);
            EXPECT_LE(u, 1.0);
        }
    }
}

TEST(JobSimTest, JobsEventuallyDepart)
{
    // One short job: the load must return to zero afterwards.
    std::vector<Job> jobs{{10.0, 60.0, 0.5}};
    Rng rng(1);
    auto sim = simulateJobs(jobs, 2, JobPlacement::FirstFit, 600.0,
                            60.0, rng);
    EXPECT_NEAR(sim.trace.util(0, 0), 0.5, 1e-9); // running
    EXPECT_NEAR(sim.trace.util(5, 0), 0.0, 1e-9); // gone
    EXPECT_EQ(sim.rejected, 0u);
}

TEST(JobSimTest, FirstFitConcentratesLeastLoadedSpreads)
{
    Rng rng(11);
    auto jobs = generateJobs(quickStream(), 7200.0, rng);
    Rng r1(2), r2(2);
    auto ff = simulateJobs(jobs, 30, JobPlacement::FirstFit, 7200.0,
                           300.0, r1);
    auto ll = simulateJobs(jobs, 30, JobPlacement::LeastLoaded,
                           7200.0, 300.0, r2);
    // Compare the spread (max - mean) of the final step.
    size_t last = ff.trace.numSteps() - 1;
    double ff_spread = std::ranges::max(ff.trace.step(last)) -
                       test::mean(ff.trace.step(last));
    double ll_spread = std::ranges::max(ll.trace.step(last)) -
                       test::mean(ll.trace.step(last));
    EXPECT_GT(ff_spread, ll_spread);
}

TEST(JobSimTest, RejectionWhenOverloaded)
{
    // Demand far beyond capacity: some jobs must be rejected.
    std::vector<Job> jobs;
    for (int i = 0; i < 50; ++i)
        jobs.push_back({1.0 + i * 0.01, 10000.0, 0.9});
    Rng rng(1);
    auto sim = simulateJobs(jobs, 3, JobPlacement::FirstFit, 600.0,
                            60.0, rng);
    EXPECT_GT(sim.rejected, 40u);
}

TEST(JobSimTest, PlacementNames)
{
    EXPECT_EQ(toString(JobPlacement::Random), "random");
    EXPECT_EQ(toString(JobPlacement::LeastLoaded), "least-loaded");
    EXPECT_EQ(toString(JobPlacement::FirstFit), "first-fit");
}

} // namespace
} // namespace workload

namespace econ {
namespace {

TEST(NpvTest, UndiscountedMatchesSimpleBreakEven)
{
    NpvParams p;
    p.discount_rate = 0.0;
    p.electricity_escalation = 0.0;
    NpvResult r = evaluateNpv(4.177, 0.13, p);
    // Simple break-even: 12 / (4.177 * 24/1000 * 0.13) = 920.8 days
    // = 2.52 years.
    EXPECT_NEAR(r.discounted_payback_years, 920.8 / 365.0, 0.05);
}

TEST(NpvTest, DiscountingDelaysPayback)
{
    NpvParams flat;
    flat.discount_rate = 0.0;
    flat.electricity_escalation = 0.0;
    NpvParams discounted;
    discounted.discount_rate = 0.10;
    discounted.electricity_escalation = 0.0;
    double p_flat =
        evaluateNpv(4.177, 0.13, flat).discounted_payback_years;
    double p_disc =
        evaluateNpv(4.177, 0.13, discounted).discounted_payback_years;
    EXPECT_GT(p_disc, p_flat);
}

TEST(NpvTest, PositiveNpvAtPaperAssumptions)
{
    NpvResult r = evaluateNpv(4.177, 0.13);
    EXPECT_GT(r.npv_usd, 0.0);
    EXPECT_GT(r.discounted_payback_years, 0.0);
    EXPECT_LT(r.discounted_payback_years, 5.0);
}

TEST(NpvTest, NeverPaysBackAtZeroOutput)
{
    NpvResult r = evaluateNpv(0.0, 0.13);
    EXPECT_LT(r.npv_usd, 0.0);
    EXPECT_LT(r.discounted_payback_years, 0.0);
}

TEST(NpvTest, EscalationHelps)
{
    NpvParams none;
    none.electricity_escalation = 0.0;
    NpvParams rising;
    rising.electricity_escalation = 0.05;
    EXPECT_GT(evaluateNpv(4.0, 0.13, rising).npv_usd,
              evaluateNpv(4.0, 0.13, none).npv_usd);
}

TEST(NpvTest, RejectsBadInput)
{
    EXPECT_THROW(evaluateNpv(-1.0, 0.13), Error);
    NpvParams p;
    p.horizon_years = 0.0;
    EXPECT_THROW(evaluateNpv(4.0, 0.13, p), Error);
}

} // namespace
} // namespace econ
} // namespace h2p
