/**
 * @file
 * Supervised sweep execution tests: the failure taxonomy, cooperative
 * run guards (cancellation, deadlines, step budgets), stage-attributed
 * divergence detection, bounded retries, quarantine isolation at any
 * worker count and the worker catch-all for foreign exceptions.
 */

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/h2p_system.h"
#include "core/sweep_engine.h"
#include "obs/observability.h"
#include "tests/support/fn_stage.h"
#include "util/error.h"
#include "util/signal.h"
#include "workload/trace_gen.h"

#include <csignal>
#include <cstdio>

namespace h2p {
namespace {

bool
sameBits(double a, double b)
{
    uint64_t x, y;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x == y;
}

core::H2PConfig
smallConfig()
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 40;
    cfg.datacenter.servers_per_circulation = 20;
    return cfg;
}

workload::UtilizationTrace
makeTrace(uint64_t seed = 9, size_t servers = 40,
          double duration_s = 1.0 * 3600.0)
{
    workload::TraceGenerator gen(seed);
    return gen.generate(workload::TraceGenParams::forProfile(
                            workload::TraceProfile::Drastic),
                        servers, duration_s);
}

std::vector<core::SweepPoint>
makeGrid(const workload::UtilizationTrace &trace, size_t n)
{
    std::vector<core::SweepPoint> grid;
    for (size_t i = 0; i < n; ++i) {
        core::SweepPoint pt;
        pt.config = smallConfig();
        pt.config.optimizer.t_safe_c = 58.0 + 2.0 * double(i);
        pt.trace = &trace;
        pt.policy = i % 2 == 0 ? sched::Policy::TegOriginal
                               : sched::Policy::TegLoadBalance;
        pt.label = "pt" + std::to_string(i);
        grid.push_back(pt);
    }
    return grid;
}

/**
 * Makes @p point's controller throw a foreign exception (classified
 * Internal, retryable) at step 4 of its first attempt only. The
 * factory is called once per attempt; @p attempts_seen counts the
 * calls.
 */
void
failFirstAttempt(core::SweepPoint &point,
                 std::shared_ptr<std::atomic<int>> attempts_seen)
{
    const size_t num_circ =
        core::H2PSystem(point.config).datacenter().numCirculations();
    point.make_pipeline = [attempts_seen, num_circ]() {
        const int attempt = ++*attempts_seen;
        return test::fnPipeline([attempt, num_circ](
                                    const control::ControlContext &ctx,
                                    sched::ScheduleDecision &d) {
            if (attempt == 1 && ctx.step == 4)
                throw std::runtime_error("transient glitch");
            d.settings.assign(num_circ,
                              cluster::CoolingSetting{45.0, 80.0});
        });
    };
}

// --------------------------------------------------- failure taxonomy

TEST(FailureTaxonomyTest, NamesRoundTrip)
{
    EXPECT_STREQ(toString(FailureKind::ConfigError), "config_error");
    EXPECT_STREQ(toString(FailureKind::NumericDivergence),
                 "numeric_divergence");
    EXPECT_STREQ(toString(FailureKind::Timeout), "timeout");
    EXPECT_STREQ(toString(FailureKind::Cancelled), "cancelled");
    EXPECT_STREQ(toString(FailureKind::Internal), "internal");
}

TEST(FailureTaxonomyTest, RetryabilityFollowsDeterminism)
{
    // Deterministic failures re-fail identically: never retried.
    EXPECT_FALSE(isRetryable(FailureKind::ConfigError));
    EXPECT_FALSE(isRetryable(FailureKind::NumericDivergence));
    EXPECT_FALSE(isRetryable(FailureKind::Cancelled));
    // Wall-clock and resource failures may pass on a second try.
    EXPECT_TRUE(isRetryable(FailureKind::Timeout));
    EXPECT_TRUE(isRetryable(FailureKind::Internal));
}

TEST(FailureTaxonomyTest, RunErrorCarriesStructuredFailure)
{
    RunFailure f;
    f.kind = FailureKind::Timeout;
    f.step = 12;
    f.stage = "deadline";
    f.message = "too slow";
    RunError err(f);
    EXPECT_EQ(err.failure().kind, FailureKind::Timeout);
    EXPECT_EQ(err.failure().step, 12u);
    const std::string what = err.what();
    EXPECT_NE(what.find("timeout"), std::string::npos) << what;
    EXPECT_NE(what.find("step 12"), std::string::npos) << what;
    EXPECT_NE(what.find("deadline"), std::string::npos) << what;
    EXPECT_NE(what.find("too slow"), std::string::npos) << what;
}

// ------------------------------------------------------- run guards

TEST(RunGuardTest, StepBudgetStopsAtExactStep)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto session = sys.startSession(trace, sched::Policy::TegOriginal);

    core::RunGuard guard;
    guard.step_budget = 5;
    session.setGuard(guard);
    try {
        session.runToCompletion();
        FAIL() << "step budget not enforced";
    } catch (const RunError &e) {
        EXPECT_EQ(e.failure().kind, FailureKind::Timeout);
        EXPECT_EQ(e.failure().stage, "step_budget");
        EXPECT_EQ(e.failure().step, 5u);
    }
    // Cooperative: the five completed steps are intact.
    EXPECT_EQ(session.cursor(), 5u);
}

TEST(RunGuardTest, StepBudgetCountsFromGuardInstallation)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto session = sys.startSession(trace, sched::Policy::TegOriginal);
    session.step();
    session.step();

    core::RunGuard guard;
    guard.step_budget = 3;
    session.setGuard(guard); // budget starts at cursor 2
    try {
        session.runToCompletion();
        FAIL() << "step budget not enforced";
    } catch (const RunError &e) {
        EXPECT_EQ(e.failure().step, 5u); // 2 + 3
    }
}

TEST(RunGuardTest, CancelTokenStopsAtNextStep)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto session = sys.startSession(trace, sched::Policy::TegOriginal);

    util::CancelToken token;
    core::RunGuard guard;
    guard.cancel = &token;
    session.setGuard(guard);

    session.step(); // allowed: no request yet
    token.requestCancel();
    try {
        session.step();
        FAIL() << "cancellation not honored";
    } catch (const RunError &e) {
        EXPECT_EQ(e.failure().kind, FailureKind::Cancelled);
        EXPECT_EQ(e.failure().stage, "guard");
        EXPECT_EQ(e.failure().step, 1u);
    }
    EXPECT_EQ(session.cursor(), 1u);
}

TEST(SignalCancelTest, DeliveredSignalCancelsInsteadOfKilling)
{
    util::resetSignalCancelForTest();
    util::installSignalCancel();
    EXPECT_EQ(util::lastCancelSignal(), 0);
    EXPECT_FALSE(util::signalCancelToken().cancelRequested());

    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto session = sys.startSession(trace, sched::Policy::TegOriginal);
    core::RunGuard guard;
    guard.cancel = &util::signalCancelToken();
    session.setGuard(guard);
    session.step();

    // Deliver SIGTERM to ourselves: the handler latches the request
    // instead of terminating, and the run stops at the next step
    // boundary with the usual Cancelled classification.
    ASSERT_EQ(std::raise(SIGTERM), 0);
    EXPECT_TRUE(util::signalCancelToken().cancelRequested());
    EXPECT_EQ(util::lastCancelSignal(), SIGTERM);
    try {
        session.step();
        FAIL() << "signal cancellation not honored";
    } catch (const RunError &e) {
        EXPECT_EQ(e.failure().kind, FailureKind::Cancelled);
        EXPECT_EQ(e.failure().stage, "guard");
    }
    EXPECT_EQ(session.cursor(), 1u);

    // Kill-vs-cancel escalation: the first delivery re-armed the
    // default disposition, so a second SIGTERM would kill for real.
    struct sigaction current;
    ASSERT_EQ(::sigaction(SIGTERM, nullptr, &current), 0);
    EXPECT_EQ(current.sa_handler, SIG_DFL);

    // Re-installation arms the cooperative path again.
    util::resetSignalCancelForTest();
    util::installSignalCancel();
    ASSERT_EQ(::sigaction(SIGTERM, nullptr, &current), 0);
    EXPECT_NE(current.sa_handler, SIG_DFL);
    util::resetSignalCancelForTest();
}

TEST(SignalCancelTest, SignalCancelledSweepIsJournalResumable)
{
    util::resetSignalCancelForTest();
    util::installSignalCancel();

    struct TempPath
    {
        explicit TempPath(const std::string &n) : path(n) {}
        ~TempPath() { std::remove(path.c_str()); }
        std::string path;
    } jp("supervision_test_signal.journal");

    auto trace = makeTrace();
    auto grid = makeGrid(trace, 4);

    // Uninterrupted reference sweep.
    core::SweepOptions plain;
    plain.keep_recorders = false;
    core::SweepResult reference = core::SweepEngine(plain).run(grid);

    // Trip the token mid-sweep, as a signal handler would.
    core::SweepOptions options;
    options.keep_recorders = false;
    options.journal_path = jp.path;
    options.cancel = &util::signalCancelToken();
    // One worker: the signal lands inside the second delivery, before
    // the third point is claimed, so the premise (a cut-short sweep)
    // holds by construction. With more workers, points still in
    // flight — or finished ahead of a slow one whose delivery raises
    // the signal — can complete the whole grid first.
    options.workers = 1;
    core::SweepEngine engine(options);
    size_t delivered = 0;
    core::SweepResult cancelled =
        engine.run(grid, [&delivered](const core::SweepPointResult &) {
            if (++delivered == 2)
                std::raise(SIGTERM);
        });
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_EQ(util::lastCancelSignal(), SIGTERM);
    EXPECT_LT(delivered, grid.size());

    // The journal holds the finished points; a resume completes the
    // grid bit-identically to the uninterrupted run.
    util::resetSignalCancelForTest();
    core::SweepResult resumed = engine.resume(grid);
    EXPECT_FALSE(resumed.cancelled);
    ASSERT_EQ(resumed.points.size(), reference.points.size());
    for (size_t i = 0; i < resumed.points.size(); ++i) {
        EXPECT_EQ(resumed.points[i].status, reference.points[i].status);
        EXPECT_TRUE(sameBits(resumed.points[i].summary.pre,
                             reference.points[i].summary.pre));
        EXPECT_TRUE(sameBits(resumed.points[i].summary.avg_teg_w,
                             reference.points[i].summary.avg_teg_w));
    }
    util::resetSignalCancelForTest();
}

TEST(RunGuardTest, ExpiredDeadlineStopsBeforeTheNextStep)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto session = sys.startSession(trace, sched::Policy::TegOriginal);

    core::RunGuard guard;
    guard.deadline_s = 1e-9; // already expired at the first check
    session.setGuard(guard);
    try {
        session.runToCompletion();
        FAIL() << "deadline not enforced";
    } catch (const RunError &e) {
        EXPECT_EQ(e.failure().kind, FailureKind::Timeout);
        EXPECT_EQ(e.failure().stage, "deadline");
    }
}

TEST(RunGuardTest, ClearedGuardRunsToCompletion)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto session = sys.startSession(trace, sched::Policy::TegOriginal);

    core::RunGuard guard;
    guard.step_budget = 3;
    session.setGuard(guard);
    session.step();
    session.setGuard(core::RunGuard{}); // clear
    EXPECT_NO_THROW(session.runToCompletion());
    EXPECT_NO_THROW(session.finish());
}

TEST(RunGuardTest, GuardedRunIsBitIdenticalToUnguarded)
{
    // An inactive-but-installed guard (generous budgets) must not
    // perturb results: supervision is observation, not simulation.
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    auto plain = sys.run(trace, sched::Policy::TegLoadBalance);

    auto session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    util::CancelToken token;
    core::RunGuard guard;
    guard.cancel = &token;
    guard.deadline_s = 3600.0;
    guard.step_budget = trace.numSteps() + 1;
    session.setGuard(guard);
    session.runToCompletion();
    auto guarded = session.finish();
    EXPECT_TRUE(sameBits(plain.summary.pre, guarded.summary.pre));
    EXPECT_TRUE(
        sameBits(plain.summary.avg_teg_w, guarded.summary.avg_teg_w));
}

// ------------------------------------------- divergence attribution

TEST(DivergenceTest, InfinitePowerIsCaughtAtTheOffendingStage)
{
    // An absurd CPU-power coefficient drives the per-server power to
    // ~1.6e307 W; the 40-server aggregate overflows to inf. The step
    // loop must stop at step 0 with the stage attached — not at
    // summary time with a bare "pre=inf".
    core::H2PConfig cfg = smallConfig();
    cfg.datacenter.server.power.scale = 1e308;
    core::H2PSystem sys(cfg);
    auto trace = makeTrace();
    auto session = sys.startSession(trace, sched::Policy::TegOriginal);
    try {
        session.runToCompletion();
        session.finish();
        FAIL() << "divergence not detected";
    } catch (const RunError &e) {
        EXPECT_EQ(e.failure().kind, FailureKind::NumericDivergence);
        EXPECT_EQ(e.failure().step, 0u);
        EXPECT_EQ(e.failure().stage, "evaluate");
    }
}

TEST(DivergenceTest, NonFiniteControllerDecisionIsCaughtAtDecide)
{
    core::H2PSystem sys(smallConfig());
    auto trace = makeTrace();
    const size_t num_circ = sys.datacenter().numCirculations();
    auto session = sys.startSession(
        trace, sched::Policy::TegOriginal,
        test::fnPipeline([&](const control::ControlContext &,
                             sched::ScheduleDecision &d) {
            d.settings.assign(num_circ, cluster::CoolingSetting{
                                            std::nan(""), 80.0});
        }));
    try {
        session.step();
        FAIL() << "NaN setpoint not detected";
    } catch (const RunError &e) {
        EXPECT_EQ(e.failure().kind, FailureKind::NumericDivergence);
        EXPECT_EQ(e.failure().step, 0u);
        EXPECT_EQ(e.failure().stage, "decide");
    }
}

// --------------------------------------- supervised sweep execution

TEST(SupervisedSweepTest, QuarantineIsolatesFailuresAtAnyWorkerCount)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 6);
    // Point 2 diverges numerically at step 0; point 4 exhausts a
    // 3-step budget. Both must be quarantined with exact attribution
    // while the other four points complete bit-identically to a
    // clean sweep.
    grid[2].config.datacenter.server.power.scale = 1e308;
    grid[2].label = "diverging";
    grid[4].step_budget = 3;
    grid[4].label = "budgeted";

    // Clean reference: the same grid without the two failing points.
    auto clean_grid = makeGrid(trace, 6);
    core::SweepEngine ref_engine;
    core::SweepResult reference = ref_engine.run(clean_grid);

    for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
        core::SweepOptions options;
        options.workers = workers;
        options.keep_recorders = false;
        core::SweepEngine engine(options);
        core::SweepResult result = engine.run(grid);

        EXPECT_EQ(result.quarantined, 2u) << "workers=" << workers;
        EXPECT_EQ(result.runs_completed, 4u) << "workers=" << workers;
        EXPECT_FALSE(result.cancelled);

        const core::SweepPointResult &div = result.points[2];
        EXPECT_EQ(div.status, core::PointStatus::Quarantined);
        EXPECT_EQ(div.failure.kind, FailureKind::NumericDivergence);
        EXPECT_EQ(div.failure.step, 0u);
        EXPECT_EQ(div.failure.stage, "evaluate");
        EXPECT_EQ(div.attempts, 1u); // deterministic: no retry

        const core::SweepPointResult &slow = result.points[4];
        EXPECT_EQ(slow.status, core::PointStatus::Quarantined);
        EXPECT_EQ(slow.failure.kind, FailureKind::Timeout);
        EXPECT_EQ(slow.failure.step, 3u);
        EXPECT_EQ(slow.failure.stage, "step_budget");

        for (size_t i : {size_t{0}, size_t{1}, size_t{3}, size_t{5}}) {
            const core::SweepPointResult &good = result.points[i];
            EXPECT_EQ(good.status, core::PointStatus::Completed);
            EXPECT_TRUE(sameBits(good.summary.pre,
                                 reference.points[i].summary.pre))
                << "point " << i << " workers=" << workers;
            EXPECT_TRUE(
                sameBits(good.summary.avg_teg_w,
                         reference.points[i].summary.avg_teg_w))
                << "point " << i << " workers=" << workers;
            EXPECT_TRUE(
                sameBits(good.summary.safe_fraction,
                         reference.points[i].summary.safe_fraction))
                << "point " << i << " workers=" << workers;
        }
    }
}

TEST(SupervisedSweepTest, RetryableFailureSucceedsOnSecondAttempt)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 3);
    auto attempts_seen = std::make_shared<std::atomic<int>>(0);
    failFirstAttempt(grid[1], attempts_seen);

    core::SweepOptions options;
    options.max_attempts = 2;
    options.keep_recorders = false;
    core::SweepEngine engine(options);
    core::SweepResult result = engine.run(grid);

    EXPECT_EQ(result.quarantined, 0u);
    EXPECT_EQ(result.runs_completed, 3u);
    EXPECT_EQ(result.retries, 1u);
    EXPECT_EQ(result.points[1].attempts, 2u);
    EXPECT_EQ(result.points[1].status, core::PointStatus::Completed);
    EXPECT_EQ(attempts_seen->load(), 2);
}

TEST(SupervisedSweepTest, ExhaustedRetriesQuarantineWithLastFailure)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 2);
    const size_t num_circ =
        core::H2PSystem(grid[0].config).datacenter().numCirculations();
    grid[0].make_pipeline = [num_circ]() {
        return test::fnPipeline([](const control::ControlContext &,
                                   sched::ScheduleDecision &) {
            throw std::runtime_error("always broken");
        });
    };

    core::SweepOptions options;
    options.max_attempts = 3;
    options.keep_recorders = false;
    core::SweepEngine engine(options);
    core::SweepResult result = engine.run(grid);

    EXPECT_EQ(result.quarantined, 1u);
    EXPECT_EQ(result.retries, 2u);
    const core::SweepPointResult &bad = result.points[0];
    EXPECT_EQ(bad.attempts, 3u);
    EXPECT_EQ(bad.failure.kind, FailureKind::Internal);
    EXPECT_NE(bad.failure.message.find("always broken"),
              std::string::npos);
    EXPECT_EQ(result.points[1].status, core::PointStatus::Completed);
    (void)num_circ;
}

TEST(SupervisedSweepTest, WorkerCatchAllHandlesForeignThrows)
{
    auto trace = makeTrace();

    // A custom controller that throws std::bad_alloc: reported as
    // Internal with a readable message, not a dead sweep.
    {
        auto grid = makeGrid(trace, 2);
        grid[1].make_pipeline = []() {
            return test::fnPipeline([](const control::ControlContext &,
                                       sched::ScheduleDecision &) {
                throw std::bad_alloc();
            });
        };
        core::SweepOptions options;
        options.max_attempts = 1;
        core::SweepEngine engine(options);
        core::SweepResult result = engine.run(grid);
        EXPECT_EQ(result.points[1].status,
                  core::PointStatus::Quarantined);
        EXPECT_EQ(result.points[1].failure.kind, FailureKind::Internal);
        EXPECT_NE(result.points[1].failure.message.find("out of memory"),
                  std::string::npos);
        EXPECT_EQ(result.points[0].status,
                  core::PointStatus::Completed);
    }

    // A non-std::exception throw (here: int) from a worker.
    {
        auto grid = makeGrid(trace, 2);
        grid[0].make_pipeline = []() {
            return test::fnPipeline([](const control::ControlContext &,
                                       sched::ScheduleDecision &) {
                throw 42;
            });
        };
        core::SweepOptions options;
        options.max_attempts = 1;
        core::SweepEngine engine(options);
        core::SweepResult result = engine.run(grid);
        EXPECT_EQ(result.points[0].status,
                  core::PointStatus::Quarantined);
        EXPECT_EQ(result.points[0].failure.kind, FailureKind::Internal);
        EXPECT_NE(
            result.points[0].failure.message.find("non-standard"),
            std::string::npos);
        EXPECT_EQ(result.points[1].status,
                  core::PointStatus::Completed);
    }
}

TEST(SupervisedSweepTest, QuarantinedPointsAreDeliveredInOrder)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 4);
    grid[1].config.datacenter.server.power.scale = 1e308;

    core::SweepOptions options;
    options.workers = 4;
    options.keep_recorders = false;
    core::SweepEngine engine(options);
    std::vector<std::pair<size_t, core::PointStatus>> seen;
    engine.run(grid, [&](const core::SweepPointResult &r) {
        seen.push_back({r.index, r.status});
    });
    ASSERT_EQ(seen.size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(seen[i].first, i);
    EXPECT_EQ(seen[1].second, core::PointStatus::Quarantined);
}

TEST(SupervisedSweepTest, StepBudgetFailureIsNotRetried)
{
    // A spent step budget fails at the same step on every attempt,
    // so it is quarantined on the first; a wall-clock deadline may
    // pass on a re-run and is retried.
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 2);
    grid[0].deadline_s = 1e-9; // expires before the first step
    grid[1].step_budget = 3;

    core::SweepOptions options;
    options.max_attempts = 3;
    options.keep_recorders = false;
    core::SweepEngine engine(options);
    core::SweepResult result = engine.run(grid);

    const core::SweepPointResult &late = result.points[0];
    EXPECT_EQ(late.status, core::PointStatus::Quarantined);
    EXPECT_EQ(late.failure.stage, "deadline");
    EXPECT_EQ(late.attempts, 3u);

    const core::SweepPointResult &spent = result.points[1];
    EXPECT_EQ(spent.status, core::PointStatus::Quarantined);
    EXPECT_EQ(spent.failure.kind, FailureKind::Timeout);
    EXPECT_EQ(spent.failure.step, 3u);
    EXPECT_EQ(spent.failure.stage, "step_budget");
    EXPECT_EQ(spent.attempts, 1u);
    EXPECT_EQ(result.retries, 2u); // the deadline point's two re-runs
}

TEST(SupervisedSweepTest, PerPointDeadlineOverridesSweepDefault)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 2);
    grid[0].deadline_s = 1e-9; // expires before the first step

    core::SweepOptions options;
    options.point_deadline_s = 3600.0; // generous default
    options.max_attempts = 1;
    options.keep_recorders = false;
    core::SweepEngine engine(options);
    core::SweepResult result = engine.run(grid);

    EXPECT_EQ(result.points[0].status, core::PointStatus::Quarantined);
    EXPECT_EQ(result.points[0].failure.kind, FailureKind::Timeout);
    EXPECT_EQ(result.points[0].failure.stage, "deadline");
    EXPECT_EQ(result.points[1].status, core::PointStatus::Completed);
}

TEST(SupervisedSweepTest, ObsCountsRetriesQuarantinesAndTimeouts)
{
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 3);
    grid[1].step_budget = 2; // deterministic Timeout -> quarantined
    failFirstAttempt(grid[2], std::make_shared<std::atomic<int>>(0));

    obs::ObsParams params;
    params.enabled = true;
    obs::Observability obs(params);

    core::SweepOptions options;
    options.obs = &obs;
    options.max_attempts = 2;
    options.keep_recorders = false;
    core::SweepEngine engine(options);
    core::SweepResult result = engine.run(grid);

    EXPECT_EQ(result.quarantined, 1u);
    EXPECT_EQ(result.retries, 1u);
    EXPECT_EQ(obs.metrics().counterValue("sweep.quarantined"), 1u);
    EXPECT_EQ(obs.metrics().counterValue("sweep.retries"), 1u);
    EXPECT_EQ(obs.metrics().counterValue("sweep.timeouts"), 1u);
    EXPECT_EQ(obs.metrics().counterValue("sweep.runs"), 2u);

    // One quarantine event with the failure attribution attached.
    bool found = false;
    for (const obs::Event &e : obs.events().snapshot()) {
        if (e.kind != "sweep.quarantine")
            continue;
        found = true;
        EXPECT_EQ(e.subject, "pt1");
        EXPECT_NE(e.detail.find("timeout"), std::string::npos);
        EXPECT_EQ(e.step, 2);
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace h2p
