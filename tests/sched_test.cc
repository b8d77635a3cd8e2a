/**
 * @file
 * Unit tests for the sched module: look-up space (Fig. 12), cooling
 * optimizer (Sec. V-B Steps 1-3), balancers, scheduler and the
 * circulation designer (Sec. V-A).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/datacenter.h"
#include "control/stages.h"
#include "sched/circulation_design.h"
#include "sched/cooling_optimizer.h"
#include "sched/lookup_cache.h"
#include "sched/lookup_space.h"
#include "tests/support/mutate.h"
#include "util/error.h"

namespace h2p {
namespace sched {
namespace {

cluster::Server
defaultServer()
{
    return cluster::Server{};
}

/** Bitwise equality: tells -0.0 from 0.0 and never rounds. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** Every grid point of the slice u = @p util, in visiting order. */
std::vector<LookupPoint>
sliceOf(const LookupSpace &space, double util)
{
    std::vector<LookupPoint> points;
    space.forEachInSlice(util,
                         [&](const LookupPoint &p) { points.push_back(p); });
    return points;
}

// ---------------------------------------------------------- lookup space

TEST(LookupSpaceTest, InterpolationCloseToDirectModel)
{
    cluster::Server server = defaultServer();
    LookupSpace space(server);
    const auto &thermal = server.thermalModel();
    const auto &power = server.powerModel();
    // Probe off-grid points; the model is near-linear so trilinear
    // interpolation must be accurate.
    for (double u : {0.13, 0.42, 0.77}) {
        for (double f : {17.0, 55.0, 93.0}) {
            for (double t : {23.0, 38.5, 52.0}) {
                double direct =
                    thermal.dieTemperature(power.power(u), f, t);
                EXPECT_NEAR(space.cpuTemp(u, f, t), direct, 0.6)
                    << "u=" << u << " f=" << f << " t=" << t;
            }
        }
    }
}

TEST(LookupSpaceTest, ExactOnGridPoints)
{
    cluster::Server server = defaultServer();
    LookupSpaceParams p;
    LookupSpace space(server, p);
    double u = 0.5, f = 55.0, t = 40.0; // all on-grid coordinates
    double direct = server.thermalModel().dieTemperature(
        server.powerModel().power(u), f, t);
    EXPECT_NEAR(space.cpuTemp(u, f, t), direct, 1e-9);
}

TEST(LookupSpaceTest, SliceEnumeratesFullPlane)
{
    LookupSpace space(defaultServer());
    auto pts = sliceOf(space, 0.4);
    EXPECT_EQ(pts.size(), space.params().flow_points *
                              space.params().tin_points);
    for (const auto &p : pts)
        EXPECT_DOUBLE_EQ(p.util, 0.4);
}

TEST(LookupSpaceTest, NumPointsMatchesAxes)
{
    LookupSpaceParams p;
    p.util_points = 5;
    p.flow_points = 4;
    p.tin_points = 3;
    LookupSpace space(defaultServer(), p);
    EXPECT_EQ(space.numPoints(), 60u);
}

TEST(LookupSpaceTest, OutletTempAboveInlet)
{
    LookupSpace space(defaultServer());
    for (const auto &p : sliceOf(space, 0.6))
        EXPECT_GT(p.t_out_c, p.t_in_c);
}

TEST(LookupSpaceTest, RejectsDegenerateAxes)
{
    LookupSpaceParams p;
    p.flow_points = 1;
    EXPECT_THROW(LookupSpace(defaultServer(), p), Error);
}

TEST(LookupSpaceTest, RejectsNonFiniteQueries)
{
    LookupSpace space(defaultServer());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(space.forEachInSlice(nan, [](const LookupPoint &) {}),
                 Error);
    EXPECT_THROW(space.cpuTemp(nan, 50.0, 40.0), Error);
    EXPECT_THROW(space.cpuTemp(0.5, nan, 40.0), Error);
    EXPECT_THROW(space.cpuTemp(0.5, 50.0, nan), Error);
    EXPECT_THROW(space.outletTemp(nan, 50.0, 40.0), Error);
    EXPECT_THROW(space.outletTemp(0.5, nan, 40.0), Error);
    EXPECT_THROW(space.outletTemp(0.5, 50.0, nan), Error);

    // +-inf keep clamping to the axis ends.
    EXPECT_TRUE(sameBits(space.cpuTemp(inf, -inf, inf),
                         space.cpuTemp(1.0, 10.0, 55.0)));
    EXPECT_TRUE(sameBits(space.outletTemp(-inf, inf, -inf),
                         space.outletTemp(0.0, 100.0, 20.0)));
    std::vector<LookupPoint> hot = sliceOf(space, inf);
    std::vector<LookupPoint> top = sliceOf(space, 1.0);
    ASSERT_EQ(hot.size(), top.size());
    for (size_t n = 0; n < hot.size(); ++n) {
        EXPECT_TRUE(sameBits(hot[n].t_cpu_c, top[n].t_cpu_c)) << n;
        EXPECT_TRUE(sameBits(hot[n].t_out_c, top[n].t_out_c)) << n;
    }
}

/**
 * Default axes; steps that are not exactly representable, where a
 * node's coordinate can locate just below the node; the smallest grid
 * the space accepts.
 */
std::vector<LookupSpaceParams>
bitIdentityAxes()
{
    LookupSpaceParams inexact;
    inexact.util_points = 17;
    inexact.flow_points = 23;
    inexact.flow_min_lph = 7.3;
    inexact.flow_max_lph = 113.1;
    inexact.tin_points = 29;
    inexact.tin_min_c = 18.7;
    inexact.tin_max_c = 57.3;
    LookupSpaceParams tiny;
    tiny.util_points = 2;
    tiny.flow_points = 2;
    tiny.tin_points = 3;
    return {LookupSpaceParams{}, inexact, tiny};
}

/**
 * Planning utilizations for bit-identity checks: 0, 1, every k/2000,
 * every util node of @p params and 200 seeded random points.
 */
std::vector<double>
bitIdentityUtils(const LookupSpaceParams &params, std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> utils{0.0, 1.0};
    for (int k = 0; k <= 2000; ++k)
        utils.push_back(k / 2000.0);
    GridAxis au(0.0, 1.0, params.util_points);
    for (size_t i = 0; i < au.count(); ++i)
        utils.push_back(au.coord(i));
    for (int r = 0; r < 200; ++r)
        utils.push_back(unit(rng));
    return utils;
}

TEST(LookupSpaceTest, SliceMatchesPointwiseTrilinearBitForBit)
{
    const cluster::Server server = defaultServer();
    std::mt19937_64 rng(2020);
    for (const LookupSpaceParams &params : bitIdentityAxes()) {
        LookupSpace space(server, params);
        const std::vector<double> utils = bitIdentityUtils(params, rng);

        size_t points = 0;
        size_t mismatches = 0;
        for (double u : utils) {
            space.forEachInSlice(u, [&](const LookupPoint &p) {
                ++points;
                if (!sameBits(p.util, u) ||
                    !sameBits(p.t_cpu_c,
                              space.cpuTemp(u, p.flow_lph, p.t_in_c)) ||
                    !sameBits(p.t_out_c,
                              space.outletTemp(u, p.flow_lph, p.t_in_c)))
                    ++mismatches;
            });
        }
        EXPECT_EQ(points, utils.size() * params.flow_points *
                              params.tin_points)
            << params.util_points;
        EXPECT_EQ(mismatches, 0u) << params.util_points;
    }
}

/** The full scan's answer: the slice's first strict T_CPU minimum. */
LookupPoint
fullScanColdest(const LookupSpace &space, double util)
{
    LookupPoint coldest;
    bool have = false;
    space.forEachInSlice(util, [&](const LookupPoint &p) {
        if (!have || p.t_cpu_c < coldest.t_cpu_c) {
            coldest = p;
            have = true;
        }
    });
    return coldest;
}

bool
samePoint(const LookupPoint &a, const LookupPoint &b)
{
    return std::memcmp(&a, &b, sizeof(LookupPoint)) == 0;
}

TEST(LookupSpaceTest, ColdestInSliceMatchesFullScanBitForBit)
{
    const cluster::Server server = defaultServer();
    const double inf = std::numeric_limits<double>::infinity();
    std::mt19937_64 rng(1616);
    for (const LookupSpaceParams &params : bitIdentityAxes()) {
        LookupSpace space(server, params);
        std::vector<double> utils = bitIdentityUtils(params, rng);
        utils.push_back(inf);
        utils.push_back(-inf);
        size_t mismatches = 0;
        for (double u : utils)
            if (!samePoint(space.coldestInSlice(u),
                           fullScanColdest(space, u)))
                ++mismatches;
        EXPECT_EQ(mismatches, 0u) << params.util_points;
        EXPECT_THROW(
            space.coldestInSlice(std::numeric_limits<double>::quiet_NaN()),
            Error);
    }
}

/** The full scan: first strict minimum of lerp(lo[k], hi[k], t). */
uint32_t
fullScanNode(const std::vector<double> &lo, const std::vector<double> &hi,
             double t)
{
    uint32_t best = 0;
    for (uint32_t k = 1; k < lo.size(); ++k)
        if (lerp(lo[k], hi[k], t) < lerp(lo[best], hi[best], t))
            best = k;
    return best;
}

/** The candidate scan coldestInSlice() runs, over @p cands. */
uint32_t
candidateNode(const std::vector<double> &lo, const std::vector<double> &hi,
              double t, const std::vector<uint32_t> &cands)
{
    return firstColdestNode(lo.data(), hi.data(), t, cands.data(),
                            cands.data() + cands.size());
}

TEST(LookupSpaceTest, ColdestCandidatesMatchBruteForceOnRandomPlanes)
{
    // Non-monotone planes: independent values, anti-correlated planes
    // (nearly nothing is dominated, so the lists are long) and values
    // from a small integer set (planted ties on one or both planes).
    std::mt19937_64 rng(16);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> small(0, 6);
    const size_t n = 400;
    size_t longest = 0;
    size_t tie_nodes = 0;
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<double> lo(n);
        std::vector<double> hi(n);
        for (size_t k = 0; k < n; ++k) {
            switch (trial % 3) {
              case 0:
                lo[k] = 40.0 + 30.0 * unit(rng);
                hi[k] = 40.0 + 30.0 * unit(rng);
                break;
              case 1:
                lo[k] = 40.0 + 30.0 * unit(rng);
                hi[k] = 110.0 - lo[k] + 1e-3 * unit(rng);
                break;
              default:
                lo[k] = 50.0 + small(rng);
                hi[k] = 50.0 + small(rng);
                break;
            }
        }

        std::vector<uint32_t> brute;
        for (size_t k = 0; k < n; ++k) {
            bool dominated = false;
            for (size_t m = 0; m < k; ++m) {
                if (lo[m] <= lo[k] && hi[m] <= hi[k])
                    dominated = true;
                if (lo[m] == lo[k] || hi[m] == hi[k])
                    ++tie_nodes;
            }
            if (!dominated)
                brute.push_back(static_cast<uint32_t>(k));
        }
        const std::vector<uint32_t> cands =
            coldestCandidates(lo.data(), hi.data(), n);
        ASSERT_EQ(cands, brute) << "trial " << trial;
        longest = std::max(longest, cands.size());

        std::vector<double> ts{0.0, 1.0, 0.5};
        for (int k = 1; k < 64; ++k)
            ts.push_back(k / 64.0);
        for (int r = 0; r < 64; ++r)
            ts.push_back(unit(rng));
        for (double t : ts)
            EXPECT_EQ(candidateNode(lo, hi, t, cands),
                      fullScanNode(lo, hi, t))
                << "trial " << trial << " t=" << t;
    }
    EXPECT_GT(longest, n / 2);
    EXPECT_GT(tie_nodes, 0u);
}

TEST(LookupSpaceTest, ColdestCandidatesKeepEarlierNodeOnRoundedTie)
{
    // Node 1 dominates node 0 (equal on plane lo, one ulp lower on
    // plane hi), yet at t = 0.5 both interpolate to exactly 1.0, so
    // the full scan keeps node 0. Pruning by a later dominator would
    // return node 1.
    const std::vector<double> lo{1.0, 1.0};
    const std::vector<double> hi{std::nextafter(1.0, 2.0), 1.0};
    ASSERT_TRUE(sameBits(lerp(lo[0], hi[0], 0.5), lerp(lo[1], hi[1], 0.5)));
    const std::vector<uint32_t> cands =
        coldestCandidates(lo.data(), hi.data(), lo.size());
    EXPECT_EQ(cands, (std::vector<uint32_t>{0, 1}));
    EXPECT_EQ(fullScanNode(lo, hi, 0.5), 0u);
    EXPECT_EQ(candidateNode(lo, hi, 0.5, cands), 0u);
    EXPECT_EQ(fullScanNode(lo, hi, 1.0), 1u);
    EXPECT_EQ(candidateNode(lo, hi, 1.0, cands), 1u);

    // An earlier node that dominates a later one, equal values
    // included, does prune it.
    const std::vector<double> a{1.0, 1.0, 2.0};
    const std::vector<double> b{1.0, 1.0, 0.5};
    EXPECT_EQ(coldestCandidates(a.data(), b.data(), a.size()),
              (std::vector<uint32_t>{0, 2}));
}

TEST(LookupSpaceTest, RejectsNonFiniteNodeValues)
{
    // An infinite slope makes every die temperature infinite; an
    // infinite leakage gain makes the outlet temperature infinite
    // wherever the die runs above the leakage reference.
    cluster::ServerParams hot_die;
    hot_die.thermal.gamma_slope = std::numeric_limits<double>::infinity();
    cluster::ServerParams hot_outlet;
    hot_outlet.thermal.leak_gamma = std::numeric_limits<double>::infinity();
    for (const cluster::ServerParams &params : {hot_die, hot_outlet}) {
        cluster::Server server(params);
        try {
            LookupSpace space(server);
            ADD_FAILURE() << "non-finite node table accepted";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("look-up node (u="),
                      std::string::npos)
                << e.what();
        }
    }
}

// ------------------------------------------------------------- optimizer

struct OptFixture : ::testing::Test
{
    OptFixture()
        : server(), space(server), teg(12), opt(space, teg, 20.0)
    {
    }
    cluster::Server server;
    LookupSpace space;
    thermal::TegModule teg;
    CoolingOptimizer opt;
};

TEST_F(OptFixture, ChosenSettingKeepsCpuNearTsafe)
{
    OptimizerResult r = opt.choose(0.5);
    EXPECT_LE(r.t_cpu_c,
              opt.params().t_safe_c + opt.params().band_c + 1e-9);
}

TEST_F(OptFixture, ChoiceIsArgmaxOverCandidates)
{
    double plan = 0.45;
    OptimizerResult r = opt.choose(plan);
    for (const auto &p : opt.candidateSet(plan)) {
        double power = teg.powerFromTemps(p.t_out_c, 20.0, p.flow_lph);
        EXPECT_LE(power, r.teg_power_w + 1e-9);
    }
}

TEST_F(OptFixture, HigherPlanUtilGivesColderInlet)
{
    // The hotter the planned workload, the colder the inlet water
    // must be (Fig. 14's anticorrelation).
    double prev = 1e9;
    for (double u : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        OptimizerResult r = opt.choose(u);
        EXPECT_LE(r.setting.t_in_c, prev + 1e-9) << "u=" << u;
        prev = r.setting.t_in_c;
    }
}

TEST_F(OptFixture, HigherPlanUtilGivesLessTegPower)
{
    double p_low = opt.choose(0.1).teg_power_w;
    double p_high = opt.choose(0.9).teg_power_w;
    EXPECT_GT(p_low, p_high);
}

TEST_F(OptFixture, TegPowerScaleMatchesPaper)
{
    // The paper's per-CPU module output is ~3-4.6 W across the
    // whole evaluation; the optimizer must land in that band.
    for (double u : {0.1, 0.3, 0.5, 0.8, 1.0}) {
        OptimizerResult r = opt.choose(u);
        EXPECT_GT(r.teg_power_w, 2.0) << "u=" << u;
        EXPECT_LT(r.teg_power_w, 5.0) << "u=" << u;
    }
}

TEST_F(OptFixture, CandidateSetRespectsBand)
{
    for (const auto &p : opt.candidateSet(0.5)) {
        EXPECT_NEAR(p.t_cpu_c, opt.params().t_safe_c,
                    opt.params().band_c + 1e-9);
    }
}

TEST_F(OptFixture, FallbackWhenBandUnreachable)
{
    // With a T_safe far above anything reachable the band is empty;
    // the optimizer must still return a (safe) setting.
    OptimizerParams pp;
    pp.t_safe_c = 200.0;
    CoolingOptimizer opt2(space, teg, 20.0, pp);
    OptimizerResult r = opt2.choose(0.5);
    EXPECT_TRUE(r.fallback);
    EXPECT_EQ(r.candidates, 0u);
    // Empty band with everything "safe": pick warmest -> highest
    // power; it must equal the global max over the slice.
    double best = 0.0;
    for (const auto &p : sliceOf(space, 0.5)) {
        best = std::max(best, teg.powerFromTemps(p.t_out_c, 20.0,
                                                 p.flow_lph));
    }
    EXPECT_NEAR(r.teg_power_w, best, 1e-9);
}

TEST_F(OptFixture, MaxCoolingWhenNothingSafe)
{
    OptimizerParams pp;
    pp.t_safe_c = 21.0; // nothing reaches down to 21 C
    pp.band_c = 0.1;
    CoolingOptimizer opt2(space, teg, 20.0, pp);
    OptimizerResult r = opt2.choose(1.0);
    EXPECT_TRUE(r.fallback);
    // Must pick the coldest achievable die temperature.
    double coldest = 1e9;
    for (const auto &p : sliceOf(space, 1.0))
        coldest = std::min(coldest, p.t_cpu_c);
    EXPECT_NEAR(r.t_cpu_c, coldest, 1e-9);
}

TEST_F(OptFixture, RejectsOutOfRangePlanUtil)
{
    EXPECT_THROW(opt.choose(-0.1), Error);
    EXPECT_THROW(opt.choose(1.1), Error);
}

TEST_F(OptFixture, TsafeOverrideMatchesDefaultAtDefault)
{
    // With no margin (safe mode off) WidenMargin plans at T_safe.
    for (double u : {0.1, 0.5, 0.9}) {
        OptimizerResult a = opt.choose(u);
        OptimizerResult b = opt.choose(u, SafeModeAction::WidenMargin);
        EXPECT_DOUBLE_EQ(a.setting.t_in_c, b.setting.t_in_c) << u;
        EXPECT_DOUBLE_EQ(a.setting.flow_lph, b.setting.flow_lph) << u;
        EXPECT_DOUBLE_EQ(a.teg_power_w, b.teg_power_w) << u;
        EXPECT_EQ(a.candidates, b.candidates) << u;
    }
}

TEST_F(OptFixture, WidenedMarginPlansColder)
{
    // Planning against a lowered T_safe (degraded-mode WidenMargin)
    // must not pick a hotter die than the normal plan.
    CoolingOptimizer guarded(space, teg, 20.0, {}, 5.0);
    OptimizerResult normal = guarded.choose(0.5);
    OptimizerResult widened =
        guarded.choose(0.5, SafeModeAction::WidenMargin);
    EXPECT_LE(widened.t_cpu_c, normal.t_cpu_c + 1e-9);
    EXPECT_LE(widened.teg_power_w, normal.teg_power_w + 1e-9);
}

TEST_F(OptFixture, ColdestFallbackIsColdestInletHighestFlow)
{
    OptimizerResult r = opt.coldestFallback(0.7);
    EXPECT_TRUE(r.fallback);
    // The documented corner of the grid: coldest inlet, maximum flow.
    const auto &lp = space.params();
    EXPECT_DOUBLE_EQ(r.setting.t_in_c, lp.tin_min_c);
    EXPECT_DOUBLE_EQ(r.setting.flow_lph, lp.flow_max_lph);
    // Nothing in the slice runs a colder die.
    for (const auto &p : sliceOf(space, 0.7))
        EXPECT_GE(p.t_cpu_c, r.t_cpu_c - 1e-9);
}

// ------------------------------------------------------- decision cache

struct CacheFixture : ::testing::Test
{
    static constexpr double kCold = 20.0;
    static constexpr double kQuantum = 1e-3;

    CacheFixture()
        : server(), space(server), teg(12),
          opt(std::make_unique<CoolingOptimizer>(space, teg, kCold, params,
                                                 0.0, kQuantum))
    {
    }

    /**
     * The process-wide cache's space for the default server: the
     * optimizers over it share their decision tables.
     */
    static std::shared_ptr<const LookupSpace> sharedSpace()
    {
        LookupSpaceCache::instance().clear();
        return LookupSpaceCache::instance().acquire(cluster::ServerParams{},
                                                    LookupSpaceParams{});
    }

    cluster::Server server;
    LookupSpace space;
    thermal::TegModule teg;
    OptimizerParams params;
    /** Over a space of its own, so its tables are private. */
    std::unique_ptr<CoolingOptimizer> opt;
};

TEST_F(CacheFixture, HitsAndMissesAreCounted)
{
    EXPECT_EQ(opt->cacheHits(), 0u);
    EXPECT_EQ(opt->cacheMisses(), 0u);
    opt->choose(0.5);
    EXPECT_EQ(opt->cacheMisses(), 1u);
    opt->choose(0.5);
    opt->choose(0.5);
    EXPECT_EQ(opt->cacheHits(), 2u);
    EXPECT_EQ(opt->cacheMisses(), 1u);
    opt->choose(0.7);
    EXPECT_EQ(opt->cacheMisses(), 2u);
}

TEST_F(CacheFixture, RetuningTsafeDropsMemoizedDecisions)
{
    // T_safe is part of a table's identity: an optimizer at another
    // T_safe gets another table, so the memoized decision for (util,
    // old T_safe) cannot leak into its plans.
    OptimizerResult before = opt->choose(0.5);
    EXPECT_GT(opt->cacheSize(), 0u);

    OptimizerParams colder = params;
    colder.t_safe_c = params.t_safe_c - 5.0;
    auto shared = sharedSpace();
    CoolingOptimizer first(*shared, teg, kCold, params, 0.0, kQuantum);
    first.choose(0.5);
    CoolingOptimizer retuned(*shared, teg, kCold, colder, 0.0, kQuantum);
    OptimizerResult after = retuned.choose(0.5);
    EXPECT_EQ(retuned.cacheHits(), 0u);
    EXPECT_EQ(retuned.cacheMisses(), 1u);
    // A 5 C colder target must actually change the decision ...
    EXPECT_LT(after.t_cpu_c, before.t_cpu_c);
    // ... and it must equal what a fresh optimizer at the new T_safe
    // computes (i.e. no stale state of any kind).
    CoolingOptimizer fresh(space, teg, kCold, colder, 0.0, kQuantum);
    OptimizerResult expected = fresh.choose(0.5);
    EXPECT_DOUBLE_EQ(after.setting.t_in_c, expected.setting.t_in_c);
    EXPECT_DOUBLE_EQ(after.setting.flow_lph,
                     expected.setting.flow_lph);
    EXPECT_DOUBLE_EQ(after.teg_power_w, expected.teg_power_w);
    LookupSpaceCache::instance().clear();
}

TEST_F(CacheFixture, RetuningBandDropsMemoizedDecisions)
{
    // band_c is part of a table's identity: an optimizer with a wider
    // band may not read decisions filtered by the narrower one, and on
    // its own table it plans like an uncached optimizer.
    auto shared = sharedSpace();
    CoolingOptimizer narrow(*shared, teg, kCold, params, 0.0, kQuantum);
    narrow.choose(0.5);
    EXPECT_GT(narrow.cacheSize(), 0u);
    OptimizerParams wider = params;
    wider.band_c = params.band_c * 3.0;

    CoolingOptimizer retuned(*shared, teg, kCold, wider, 0.0, kQuantum);
    EXPECT_EQ(retuned.cacheSize(), 0u);
    retuned.choose(0.5);
    EXPECT_EQ(retuned.cacheMisses(), 1u);
    CoolingOptimizer fresh(space, teg, kCold, wider, 0.0, kQuantum);
    OptimizerResult after = retuned.choose(0.5);
    OptimizerResult expected = fresh.choose(0.5);
    EXPECT_EQ(retuned.cacheHits(), 1u);
    EXPECT_DOUBLE_EQ(after.setting.t_in_c, expected.setting.t_in_c);
    EXPECT_EQ(after.candidates, expected.candidates);
    LookupSpaceCache::instance().clear();
}

TEST(CoolingOptimizerTest, RejectsQuantumFinerThanDecisionTable)
{
    // Below ~1.1e-19, llround(util / q) overflows int64 and every
    // decision would plan at U = 0; the flat table bounds the bucket
    // count (llround(1/q) + 1 <= 65536), so such quanta fail loudly.
    cluster::Server server;
    LookupSpace space(server);
    thermal::TegModule teg(12);
    for (double q : {1e-300, 1e-6, 1.0 / 65536.0, 0.0})
        EXPECT_THROW(DecisionTable(space, teg, 1.0, 20.0, 63.0, q), Error)
            << q;
    for (double q : {1e-3, 1.0})
        EXPECT_NO_THROW(DecisionTable(space, teg, 1.0, 20.0, 63.0, q))
            << q;
}

TEST(CoolingOptimizerTest, RejectsTsafeAtOrBelowColdSource)
{
    cluster::Server server;
    LookupSpace space(server);
    thermal::TegModule teg(12);
    OptimizerParams p;
    EXPECT_THROW(CoolingOptimizer(space, teg, p.t_safe_c, p), Error);
    OptimizerParams negative_band;
    negative_band.band_c = -1.0;
    EXPECT_THROW(CoolingOptimizer(space, teg, 20.0, negative_band), Error);
    // The WidenMargin temperature, T_safe - margin, is checked too.
    EXPECT_THROW(CoolingOptimizer(space, teg, 20.0, p, p.t_safe_c - 20.0),
                 Error);
    EXPECT_THROW(CoolingOptimizer(space, teg, 20.0, p, -1.0), Error);
    CoolingOptimizer opt(space, teg, 20.0, p, p.t_safe_c - 21.0);
    EXPECT_NO_THROW(opt.choose(0.5, SafeModeAction::WidenMargin));
}

// --------------------------------------------------------- decision table

TEST(DecisionTableTest, ConcurrentFillMatchesPrivateSearch)
{
    // Four threads race to fill the shared tables over random
    // utilizations at both planning temperatures (normal and safe-mode
    // widened); every decision, whether computed, published or read
    // back, must be the private-table optimizer's bit for bit.
    cluster::Server server;
    LookupSpace space(server);
    LookupSpaceCache::instance().clear();
    std::shared_ptr<const LookupSpace> shared =
        LookupSpaceCache::instance().acquire(server.params(),
                                             LookupSpaceParams{});
    thermal::TegModule teg(12);
    OptimizerParams params;
    const double cold = 20.0, margin = 3.0, q = 1e-3;
    const SafeModeAction actions[2] = {SafeModeAction::Normal,
                                       SafeModeAction::WidenMargin};

    constexpr size_t kThreads = 4;
    constexpr size_t kCalls = 1500;
    struct Call
    {
        double util;
        SafeModeAction action;
        OptimizerResult result;
    };
    std::vector<std::vector<Call>> calls(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            CoolingOptimizer opt(*shared, teg, cold, params, margin, q);
            std::mt19937_64 rng(100 + t);
            std::uniform_real_distribution<double> util(0.0, 1.0);
            for (size_t i = 0; i < kCalls; ++i) {
                Call c;
                c.util = util(rng);
                c.action = actions[rng() % 2];
                c.result = opt.choose(c.util, c.action);
                calls[t].push_back(c);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    // Over a space the cache does not hold: private tables.
    CoolingOptimizer reference(space, teg, cold, params, margin, q);
    size_t checked = 0;
    for (const std::vector<Call> &thread_calls : calls)
        for (const Call &c : thread_calls) {
            OptimizerResult want = reference.choose(c.util, c.action);
            EXPECT_TRUE(sameBits(c.result.setting.t_in_c,
                                 want.setting.t_in_c) &&
                        sameBits(c.result.setting.flow_lph,
                                 want.setting.flow_lph) &&
                        sameBits(c.result.teg_power_w, want.teg_power_w) &&
                        sameBits(c.result.t_cpu_c, want.t_cpu_c) &&
                        c.result.candidates == want.candidates &&
                        c.result.fallback == want.fallback)
                << "u=" << c.util << " action="
                << static_cast<int>(c.action);
            ++checked;
        }
    EXPECT_EQ(checked, kThreads * kCalls);
    // The shared tables now hold every decision the reference made.
    CoolingOptimizer reader(*shared, teg, cold, params, margin, q);
    EXPECT_EQ(reader.cacheSize(), reference.cacheSize());
    LookupSpaceCache::instance().clear();
}

TEST(DecisionTableTest, FingerprintCoversEveryDecisionInput)
{
    const thermal::TegModule teg(12);
    const double band = 1.0, cold = 20.0, t_safe = 63.0, q = 1e-3;
    const uint64_t base =
        DecisionTable::fingerprint(teg, band, cold, t_safe, q);
    auto keyed = [&](const thermal::TegModule &other) {
        return DecisionTable::fingerprint(other, band, cold, t_safe, q) !=
               base;
    };

    EXPECT_TRUE(keyed(thermal::TegModule(13)));
    size_t fields = 0;
    test::forEachFieldChange(
        teg.device().params(),
        [&](const thermal::TegParams &m, const std::string &key) {
            EXPECT_TRUE(keyed(thermal::TegModule(12, m))) << key;
            ++fields;
        });
    test::forEachFieldChange(
        teg.plate().params(),
        [&](const thermal::ColdPlateParams &m, const std::string &key) {
            EXPECT_TRUE(keyed(thermal::TegModule(12, {}, m))) << key;
            ++fields;
        });
    EXPECT_EQ(fields, 8u + 3u);
    EXPECT_NE(DecisionTable::fingerprint(teg, band + 1.0, cold, t_safe, q),
              base);
    EXPECT_NE(DecisionTable::fingerprint(teg, band, cold + 1.0, t_safe, q),
              base);
    EXPECT_NE(DecisionTable::fingerprint(teg, band, cold, t_safe - 3.0, q),
              base);
    EXPECT_NE(DecisionTable::fingerprint(teg, band, cold, t_safe, 2e-3),
              base);
}

TEST(DecisionTableTest, ServesOnlyItsOwnConfiguration)
{
    cluster::Server server;
    LookupSpace space(server);
    LookupSpace other(server);
    thermal::TegModule teg(12);
    thermal::TegModule shorter(10);
    const double band = 1.0, cold = 20.0, t_safe = 63.0;
    DecisionTable table(space, teg, band, cold, t_safe, 1e-3);
    EXPECT_TRUE(table.serves(space, teg, band, cold, t_safe));

    EXPECT_FALSE(table.serves(other, teg, band, cold, t_safe));
    EXPECT_FALSE(table.serves(space, shorter, band, cold, t_safe));
    EXPECT_FALSE(table.serves(space, teg, band * 2.0, cold, t_safe));
    EXPECT_FALSE(table.serves(space, teg, band, cold + 5.0, t_safe));
    // The planning temperature is part of the identity.
    EXPECT_FALSE(table.serves(space, teg, band, cold, t_safe + 4.0));
    EXPECT_FALSE(table.serves(space, teg, band, cold, t_safe - 3.0));
}

// -------------------------------------------------------------- scheduler

/**
 * The per-policy scheduling schemes, driven through the production
 * decide path: the control pipeline PipelineFactory::make() builds.
 */
struct SchedFixture : ::testing::Test
{
    /** How far below T_safe a WidenMargin circulation plans, C. */
    static constexpr double kMargin = 5.0;

    SchedFixture()
    {
        params.num_servers = 8;
        params.servers_per_circulation = 4;
        dc = std::make_unique<cluster::Datacenter>(params);
        server = std::make_unique<cluster::Server>(params.server);
        space = std::make_unique<LookupSpace>(*server);
        teg = std::make_unique<thermal::TegModule>(12);
        opt = std::make_unique<CoolingOptimizer>(
            *space, *teg, params.cold_source_c, OptimizerParams{}, kMargin);
        factory = std::make_unique<control::PipelineFactory>(
            *dc, *opt, control::BalancerParams{}, opt->params().t_safe_c);
    }

    /** One interval's decision under @p policy (no safe-mode actions
     *  when @p actions is empty). */
    ScheduleDecision decide(Policy policy,
                            const std::vector<double> &utils,
                            const std::vector<SafeModeAction> &actions = {})
        const
    {
        control::ControlContext ctx;
        ctx.dc = dc.get();
        ctx.utils = &utils;
        ctx.actions = actions.empty() ? nullptr : &actions;
        ScheduleDecision d;
        factory->make(policy)->run(ctx, d);
        return d;
    }

    cluster::DatacenterParams params;
    std::unique_ptr<cluster::Datacenter> dc;
    std::unique_ptr<cluster::Server> server;
    std::unique_ptr<LookupSpace> space;
    std::unique_ptr<thermal::TegModule> teg;
    std::unique_ptr<CoolingOptimizer> opt;
    std::unique_ptr<control::PipelineFactory> factory;
};

TEST_F(SchedFixture, OriginalKeepsUtilsUnchanged)
{
    std::vector<double> utils{0.1, 0.9, 0.2, 0.3, 0.5, 0.5, 0.5, 0.5};
    auto d = decide(Policy::TegOriginal, utils);
    EXPECT_EQ(d.utils, utils);
    EXPECT_EQ(d.settings.size(), 2u);
}

TEST_F(SchedFixture, LoadBalanceFlattensWithinCirculation)
{
    std::vector<double> utils{0.1, 0.9, 0.2, 0.4, 0.6, 0.6, 0.6, 0.6};
    auto d = decide(Policy::TegLoadBalance, utils);
    // First circulation: all at its mean 0.4.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(d.utils[i], 0.4, 1e-12);
    // Second circulation was already flat.
    for (size_t i = 4; i < 8; ++i)
        EXPECT_NEAR(d.utils[i], 0.6, 1e-12);
}

TEST_F(SchedFixture, LoadBalanceGivesWarmerInletOnSkewedLoad)
{
    std::vector<double> utils{0.1, 0.9, 0.2, 0.4, 0.1, 0.9, 0.2, 0.4};
    auto d_orig = decide(Policy::TegOriginal, utils);
    auto d_lb = decide(Policy::TegLoadBalance, utils);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_GT(d_lb.settings[i].t_in_c,
                  d_orig.settings[i].t_in_c);
    }
}

TEST_F(SchedFixture, PolicyNames)
{
    EXPECT_EQ(toString(Policy::TegOriginal), "TEG_Original");
    EXPECT_EQ(toString(Policy::TegLoadBalance), "TEG_LoadBalance");
}

TEST_F(SchedFixture, AllNormalActionsReproduceTheDefaultDecision)
{
    std::vector<double> utils{0.1, 0.9, 0.2, 0.4, 0.6, 0.6, 0.6, 0.6};
    auto plain = decide(Policy::TegLoadBalance, utils);
    auto guarded = decide(
        Policy::TegLoadBalance, utils,
        std::vector<SafeModeAction>(2, SafeModeAction::Normal));
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_DOUBLE_EQ(plain.settings[i].t_in_c,
                         guarded.settings[i].t_in_c);
        EXPECT_DOUBLE_EQ(plain.settings[i].flow_lph,
                         guarded.settings[i].flow_lph);
    }
}

TEST_F(SchedFixture, ColdFallbackOverridesOnlyItsCirculation)
{
    std::vector<double> utils(8, 0.5);
    auto plain = decide(Policy::TegOriginal, utils);
    std::vector<SafeModeAction> actions{SafeModeAction::ColdFallback,
                                        SafeModeAction::Normal};
    auto d = decide(Policy::TegOriginal, utils, actions);
    EXPECT_DOUBLE_EQ(d.settings[0].t_in_c, space->params().tin_min_c);
    EXPECT_DOUBLE_EQ(d.settings[0].flow_lph,
                     space->params().flow_max_lph);
    EXPECT_DOUBLE_EQ(d.settings[1].t_in_c, plain.settings[1].t_in_c);
    EXPECT_DOUBLE_EQ(d.settings[1].flow_lph,
                     plain.settings[1].flow_lph);
}

TEST_F(SchedFixture, WidenMarginPlansNoHotter)
{
    std::vector<double> utils(8, 0.5);
    auto plain = decide(Policy::TegOriginal, utils);
    std::vector<SafeModeAction> actions(2, SafeModeAction::WidenMargin);
    auto d = decide(Policy::TegOriginal, utils, actions);
    // Each loop takes the optimizer's plan at T_safe - margin, whose
    // die runs no hotter than the normal plan's.
    const OptimizerResult normal = opt->choose(0.5);
    const OptimizerResult widened =
        opt->choose(0.5, SafeModeAction::WidenMargin);
    EXPECT_LE(widened.t_cpu_c, normal.t_cpu_c + 1e-9);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(sameBits(plain.settings[i].t_in_c,
                             normal.setting.t_in_c));
        EXPECT_TRUE(sameBits(d.settings[i].t_in_c, widened.setting.t_in_c));
        EXPECT_TRUE(sameBits(d.settings[i].flow_lph,
                             widened.setting.flow_lph));
    }
}

// ---------------------------------------------------- circulation design

TEST(CirculationDesignTest, ExpectedMaxGrowsWithLoopSize)
{
    CirculationDesigner designer;
    double prev = 0.0;
    for (size_t n : {1u, 2u, 10u, 100u, 1000u}) {
        DesignPoint p = designer.evaluate(n);
        EXPECT_GT(p.expected_max_temp_c, prev);
        prev = p.expected_max_temp_c;
    }
}

TEST(CirculationDesignTest, CapexFallsWithLoopSize)
{
    CirculationDesigner designer;
    DesignPoint small = designer.evaluate(10);
    DesignPoint big = designer.evaluate(100);
    EXPECT_GT(small.capex_usd, big.capex_usd);
}

TEST(CirculationDesignTest, SingleServerLoopNeedsNoChiller)
{
    // With mu well below T_safe, a 1-server loop never exceeds it in
    // expectation, so the expected chiller duty is zero.
    CirculationDesignParams p;
    p.cpu_temp_mu_c = 55.0;
    p.t_safe_c = 63.0;
    CirculationDesigner designer(p);
    EXPECT_DOUBLE_EQ(designer.evaluate(1).expected_delta_t_c, 0.0);
}

TEST(CirculationDesignTest, DivisorCandidatesOf1000)
{
    CirculationDesigner designer;
    auto divs = designer.divisorCandidates();
    EXPECT_EQ(divs.size(), 16u); // 1000 has 16 divisors
    EXPECT_EQ(divs.front(), 1u);
    EXPECT_EQ(divs.back(), 1000u);
}

TEST(CirculationDesignTest, OptimizeIsMinimumOfSweep)
{
    CirculationDesigner designer;
    auto pts = designer.sweep(designer.divisorCandidates());
    DesignPoint best = designer.optimize();
    for (const auto &p : pts)
        EXPECT_GE(p.total_cost_usd, best.total_cost_usd - 1e-9);
}

TEST(CirculationDesignTest, InteriorOptimumUnderTension)
{
    // With hot CPUs (energy pushes toward small loops) and real
    // chiller capital (pushes toward big loops) the optimum should
    // be strictly between the extremes.
    CirculationDesignParams p;
    p.cpu_temp_mu_c = 60.0;
    p.cpu_temp_sigma_c = 5.0;
    p.t_safe_c = 62.0;
    p.chiller_cost_usd = 1500.0;
    CirculationDesigner designer(p);
    DesignPoint best = designer.optimize();
    EXPECT_GT(best.servers_per_circulation, 1u);
    EXPECT_LT(best.servers_per_circulation, 1000u);
}

TEST(CirculationDesignTest, Eq18AppliedThroughSlopeK)
{
    CirculationDesignParams p;
    p.cpu_temp_mu_c = 62.0; // at T_safe: every loop size exceeds it
    p.k = 2.0;
    CirculationDesigner d2(p);
    p.k = 1.0;
    CirculationDesigner d1(p);
    // Larger k -> smaller supply reduction for the same excess.
    EXPECT_NEAR(d1.evaluate(100).expected_delta_t_c,
                2.0 * d2.evaluate(100).expected_delta_t_c, 1e-9);
}

TEST(CirculationDesignTest, RejectsOutOfRangeSize)
{
    CirculationDesigner designer;
    EXPECT_THROW(designer.evaluate(0), Error);
    EXPECT_THROW(designer.evaluate(1001), Error);
}

} // namespace
} // namespace sched
} // namespace h2p
