/**
 * @file
 * Unit tests for the workload module: CPU power (Eq. 20), governor
 * (Fig. 10), trace containers, synthetic trace generation and I/O.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "tests/support/aggregates.h"
#include "tests/support/trace_gen_reference.h"
#include "util/parallel.h"
#include "workload/cpu_power.h"
#include "workload/governor.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"
#include "util/error.h"

namespace h2p {
namespace workload {
namespace {

// ------------------------------------------------------------- CPU power

TEST(CpuPowerTest, MatchesPaperEq20Endpoints)
{
    CpuPowerModel m;
    EXPECT_NEAR(m.power(0.0), 109.71 * std::log(1.17) - 7.83, 1e-9);
    EXPECT_NEAR(m.peakPower(), 109.71 * std::log(2.17) - 7.83, 1e-9);
    // Sanity: idle ~9.4 W, peak ~77 W for the E5-2650 V3.
    EXPECT_NEAR(m.power(0.0), 9.41, 0.05);
    EXPECT_NEAR(m.peakPower(), 77.2, 0.2);
}

TEST(CpuPowerTest, StrictlyIncreasing)
{
    CpuPowerModel m;
    double prev = -1.0;
    for (double u = 0.0; u <= 1.0; u += 0.05) {
        double p = m.power(u);
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(CpuPowerTest, RejectsOutOfRangeUtilization)
{
    CpuPowerModel m;
    EXPECT_THROW(m.power(-0.1), Error);
    EXPECT_THROW(m.power(1.1), Error);
}

// -------------------------------------------------------------- governor

TEST(GovernorTest, SettlesNearPaperFrequency)
{
    // Fig. 10: past 50 % the frequency creeps to ~2.5 GHz.
    Governor g;
    EXPECT_NEAR(g.frequency(1.0), 2.5, 1e-12);
    EXPECT_NEAR(g.frequency(0.5), 2.4, 1e-12);
}

TEST(GovernorTest, FastRampThenSlowCreep)
{
    Governor g;
    double ramp = g.frequency(0.4) - g.frequency(0.2);
    double creep = g.frequency(0.9) - g.frequency(0.7);
    EXPECT_GT(ramp, creep); // the knee is real
}

TEST(GovernorTest, MonotonicNonDecreasing)
{
    Governor g;
    double prev = 0.0;
    for (double u = 0.0; u <= 1.0; u += 0.02) {
        double f = g.frequency(u);
        EXPECT_GE(f, prev);
        prev = f;
    }
}

TEST(GovernorTest, RejectsBadParams)
{
    GovernorParams p;
    p.knee_util = 1.5;
    EXPECT_THROW(Governor{p}, Error);
}

// ----------------------------------------------------------------- trace

TEST(TraceTest, AddAndQuerySteps)
{
    UtilizationTrace t(3, 300.0);
    t.addStep({0.1, 0.2, 0.3});
    t.addStep({0.4, 0.5, 0.6});
    EXPECT_EQ(t.numSteps(), 2u);
    EXPECT_DOUBLE_EQ(t.util(1, 2), 0.6);
    EXPECT_EQ(t.step(0), (std::vector<double>{0.1, 0.2, 0.3}));
    EXPECT_DOUBLE_EQ(t.duration(), 600.0);
}

TEST(TraceTest, ValidatesUtilizationRange)
{
    UtilizationTrace t(2, 300.0);
    EXPECT_THROW(t.addStep({0.5, 1.5}), Error);
    EXPECT_THROW(t.addStep({-0.1, 0.5}), Error);
    EXPECT_THROW(t.addStep({0.5}), Error);
}

TEST(TraceTest, VolatilityMeasuresStepChanges)
{
    UtilizationTrace flat(2, 300.0);
    flat.addStep({0.5, 0.5});
    flat.addStep({0.5, 0.5});
    EXPECT_DOUBLE_EQ(flat.volatility(), 0.0);

    UtilizationTrace wild(1, 300.0);
    wild.addStep({0.0});
    wild.addStep({1.0});
    wild.addStep({0.0});
    EXPECT_DOUBLE_EQ(wild.volatility(), 1.0);
}

// ------------------------------------------------------------- generator

/** @p a and @p b hold the same samples, bit for bit. */
testing::AssertionResult
sameBits(const UtilizationTrace &a, const UtilizationTrace &b)
{
    if (a.numServers() != b.numServers() || a.numSteps() != b.numSteps())
        return testing::AssertionFailure()
               << a.numServers() << "x" << a.numSteps() << " vs "
               << b.numServers() << "x" << b.numSteps();
    if (a.fingerprint() != b.fingerprint())
        return testing::AssertionFailure() << "fingerprints differ";
    for (size_t s = 0; s < a.numSteps(); ++s)
        for (size_t i = 0; i < a.numServers(); ++i)
            if (std::bit_cast<uint64_t>(a.util(s, i)) !=
                std::bit_cast<uint64_t>(b.util(s, i)))
                return testing::AssertionFailure()
                       << "step " << s << " server " << i << ": "
                       << a.util(s, i) << " vs " << b.util(s, i);
    return testing::AssertionSuccess();
}

TEST(TraceGenTest, DeterministicForSameSeed)
{
    TraceGenerator a(77), b(77);
    auto ta = a.generate(TraceGenParams{}, 5, 3600.0);
    auto tb = b.generate(TraceGenParams{}, 5, 3600.0);
    EXPECT_TRUE(sameBits(ta, tb));
}

#if defined(__linux__)
TEST(TraceGenTest, MatchesTimeMajorReference)
{
    // The generator sizes its workers by hardwareThreads(), which reads
    // this thread's affinity mask (spawned workers inherit it): narrow
    // the mask to one CPU for the serial path, then widen it to the
    // full mask for every worker the host grants, which also restores
    // the mask the test started with.
    cpu_set_t full;
    CPU_ZERO(&full);
    ASSERT_EQ(sched_getaffinity(0, sizeof(full), &full), 0);
    int first_cpu = 0;
    while (!CPU_ISSET(first_cpu, &full))
        ++first_cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first_cpu, &one);

    struct Case
    {
        TraceProfile profile;
        size_t servers;
        uint64_t seed;
    };
    std::vector<Case> cases;
    // Fewer servers than one claimed block, and just past a boundary.
    for (TraceProfile profile : {TraceProfile::Drastic,
                                 TraceProfile::Irregular,
                                 TraceProfile::Common})
        for (size_t servers : {size_t{1}, size_t{7}, size_t{65}})
            for (uint64_t seed : {uint64_t{1}, uint64_t{2020},
                                  (uint64_t{1} << 40) + 3})
                cases.push_back({profile, servers, seed});
    // Paper scale.
    cases.push_back({TraceProfile::Irregular, 1000, 2020});

    for (const cpu_set_t *mask : {&one, &full}) {
        ASSERT_EQ(sched_setaffinity(0, sizeof(*mask), mask), 0);
        if (mask == &one) {
            EXPECT_EQ(util::hardwareThreads(), 1u);
        }
        for (const Case &c : cases) {
            const TraceGenParams params = TraceGenParams::forProfile(
                c.profile);
            const UtilizationTrace got = TraceGenerator(c.seed).generate(
                params, c.servers, 24.0 * 3600.0);
            const UtilizationTrace want = oracle::timeMajorTrace(
                c.seed, params, c.servers, 24.0 * 3600.0);
            EXPECT_TRUE(sameBits(got, want))
                << toString(c.profile) << ", " << c.servers
                << " servers, seed " << c.seed << ", "
                << util::hardwareThreads() << " workers";
        }
    }
}
#endif

TEST(TraceGenTest, DifferentSeedsDiffer)
{
    TraceGenerator a(1), b(2);
    auto ta = a.generate(TraceGenParams{}, 3, 3600.0);
    auto tb = b.generate(TraceGenParams{}, 3, 3600.0);
    bool any_diff = false;
    for (size_t s = 0; s < ta.numSteps() && !any_diff; ++s)
        for (size_t i = 0; i < 3 && !any_diff; ++i)
            any_diff = ta.util(s, i) != tb.util(s, i);
    EXPECT_TRUE(any_diff);
}

TEST(TraceGenTest, ProfileScalesMatchPaper)
{
    TraceGenerator gen(5);
    auto drastic = gen.generateProfile(TraceProfile::Drastic, 40);
    EXPECT_EQ(drastic.numServers(), 40u);
    EXPECT_NEAR(drastic.duration(), 12.0 * 3600.0, 300.0);
    auto common = gen.generateProfile(TraceProfile::Common, 40);
    EXPECT_NEAR(common.duration(), 24.0 * 3600.0, 300.0);
}

TEST(TraceGenTest, DefaultServerCounts)
{
    TraceGenerator gen(5);
    // Alibaba: 1,313 servers; Google slices: 1,000 (Sec. V-C). Use
    // the generator's metadata only — full generation is slow here.
    auto d = gen.generateProfile(TraceProfile::Drastic, 0, 3600.0);
    EXPECT_EQ(d.numServers(), 1313u);
}

TEST(TraceGenTest, VolatilityOrderingAcrossProfiles)
{
    // Drastic must fluctuate more than irregular, which fluctuates
    // more than common (Sec. V-C's qualitative description).
    TraceGenerator gen(11);
    auto d = gen.generateProfile(TraceProfile::Drastic, 60);
    auto i = gen.generateProfile(TraceProfile::Irregular, 60);
    auto c = gen.generateProfile(TraceProfile::Common, 60);
    EXPECT_GT(d.volatility(), i.volatility());
    EXPECT_GT(i.volatility(), c.volatility());
}

TEST(TraceGenTest, IrregularHasOccasionalHighPeaks)
{
    TraceGenerator gen(13);
    auto t = gen.generateProfile(TraceProfile::Irregular, 100);
    double overall = 0.0;
    double peak = 0.0;
    for (size_t s = 0; s < t.numSteps(); ++s) {
        overall += test::mean(t.step(s));
        peak = std::max(peak, std::ranges::max(t.step(s)));
    }
    overall /= static_cast<double>(t.numSteps());
    EXPECT_LT(overall, 0.45);
    EXPECT_GT(peak, 0.7); // bursts reach high utilization
}

TEST(TraceGenTest, AllValuesInUnitRange)
{
    TraceGenerator gen(17);
    for (auto prof : {TraceProfile::Drastic, TraceProfile::Irregular,
                      TraceProfile::Common}) {
        auto t = gen.generateProfile(prof, 20);
        for (size_t s = 0; s < t.numSteps(); ++s) {
            for (size_t i = 0; i < t.numServers(); ++i) {
                double u = t.util(s, i);
                EXPECT_GE(u, 0.0);
                EXPECT_LE(u, 1.0);
            }
        }
    }
}

TEST(TraceGenTest, ToStringNames)
{
    EXPECT_EQ(toString(TraceProfile::Drastic), "drastic");
    EXPECT_EQ(toString(TraceProfile::Irregular), "irregular");
    EXPECT_EQ(toString(TraceProfile::Common), "common");
}

// ------------------------------------------------------------------- I/O

TEST(TraceIoTest, CsvRoundTrip)
{
    TraceGenerator gen(23);
    auto t = gen.generate(TraceGenParams{}, 4, 3000.0, 300.0);
    std::string path = testing::TempDir() + "/h2p_trace_test.csv";
    saveTraceCsv(t, path);
    auto r = loadTraceCsv(path, 300.0);
    ASSERT_EQ(r.numServers(), t.numServers());
    ASSERT_EQ(r.numSteps(), t.numSteps());
    for (size_t s = 0; s < t.numSteps(); ++s)
        for (size_t i = 0; i < t.numServers(); ++i)
            EXPECT_NEAR(r.util(s, i), t.util(s, i), 1e-9);
    std::remove(path.c_str());
}

TEST(TraceIoTest, LoadRejectsMissingFile)
{
    EXPECT_THROW(loadTraceCsv("/nonexistent/h2p.csv", 300.0), Error);
}

} // namespace
} // namespace workload
} // namespace h2p
