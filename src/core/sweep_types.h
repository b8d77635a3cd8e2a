/**
 * @file
 * Input and result types of batched sweeps (core::SweepEngine).
 *
 * A sweep is a grid of independent simulation runs — configuration
 * variants crossed with traces, seeds and policies. Each grid point
 * carries its own full H2PConfig (points are self-contained and can
 * differ in any knob), while the heavyweight immutable inputs are
 * shared by reference: traces are borrowed from the caller and
 * look-up tables are deduplicated behind the scenes by
 * sched::LookupSpaceCache.
 */

#ifndef H2P_CORE_SWEEP_TYPES_H_
#define H2P_CORE_SWEEP_TYPES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/run_types.h"
#include "core/sim_engine.h"
#include "obs/observability.h"
#include "sched/policy.h"
#include "sim/recorder.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "workload/trace.h"

namespace h2p {
namespace core {

/** One point of a sweep grid: a self-contained run specification. */
struct SweepPoint
{
    /** Full configuration of this run. */
    H2PConfig config;
    /**
     * Utilization trace to drive the run; borrowed, the caller keeps
     * it alive for the duration of SweepEngine::run(). Many points
     * may (and typically do) share one trace.
     */
    const workload::UtilizationTrace *trace = nullptr;
    /** Scheduling policy of this run. */
    sched::Policy policy = sched::Policy::TegOriginal;
    /**
     * Free-form tag carried through to the result — typically the
     * swept parameter value ("t_safe=60") so output rows label
     * themselves.
     */
    std::string label;
    /**
     * Optional custom control: called once per run *attempt* to
     * build a fresh pipeline, which the point's session starts with
     * (H2PSystem::startSession); a factory that returns null means
     * the policy's built-in pipeline. A factory — not a pipeline —
     * because retries re-run the point on a brand-new session and
     * stale stage state would break retry determinism. Not part of
     * the journal fingerprint; callers resuming a journaled sweep
     * must pass the same factories again.
     */
    std::function<std::unique_ptr<control::ControlPipeline>()>
        make_pipeline;
    /**
     * Per-point wall-clock deadline, seconds; overrides
     * SweepOptions::point_deadline_s when > 0.
     */
    double deadline_s = 0.0;
    /**
     * Step budget per attempt of this point (0 = unlimited). Unlike
     * the wall-clock deadline, the budget is deterministic: the run
     * always fails at exactly the same step, so a spent budget is
     * quarantined on the first attempt.
     */
    size_t step_budget = 0;
};

/** Knobs of a sweep execution; results are identical under all. */
struct SweepOptions
{
    /**
     * Sweep worker threads: 0 = auto (one per hardware thread),
     * n = at most n. Each worker runs one point at a time, serially;
     * the engine clamps the count to the grid size.
     */
    size_t workers = 0;
    /**
     * Keep each run's per-step Recorder in its result. Disable for
     * large grids where only summaries matter — recorders dominate
     * the sweep's memory footprint.
     */
    bool keep_recorders = true;
    /**
     * Optional sweep-level observability sink (null = none): records
     * the "sweep" span, the "sweep.runs" counter and the
     * "sweep.run_ms" duration histogram, plus — under supervision —
     * the "sweep.retries", "sweep.quarantined" and "sweep.timeouts"
     * counters and one "sweep.quarantine" event per quarantined
     * point. Independent of any per-point [obs] configuration, which
     * each run honors as usual.
     */
    obs::Observability *obs = nullptr;
    /**
     * Default wall-clock deadline per point, seconds (0 = unlimited);
     * SweepPoint::deadline_s overrides it per point. A point past its
     * deadline stops at the next step boundary with a Timeout failure.
     */
    double point_deadline_s = 0.0;
    /**
     * Run attempts per point before it is quarantined. Only retryable
     * failures (RunFailure::retryable: a wall-clock Timeout, Internal)
     * are retried; ConfigError, NumericDivergence and a spent step
     * budget are deterministic and quarantine on the first attempt.
     * Minimum 1.
     */
    size_t max_attempts = 2;
    /**
     * The sweep's cancellation latch (null = none; borrowed, must
     * outlive the engine): once it is tripped, points not yet
     * started are skipped and in-flight ones stop at their next step
     * boundary (status Skipped in both cases — partial state is
     * discarded), and run()/resume() return the partial result with
     * SweepResult::cancelled set. Trip it from the result callback or
     * any thread. Typically util::signalCancelToken(), so a
     * SIGINT/SIGTERM takes that graceful Skipped + journal-flush
     * path. The engine never resets it: a tripped token stops every
     * later sweep at once until its owner calls reset().
     */
    const util::CancelToken *cancel = nullptr;
    /**
     * Crash-safe journal path (empty = no journal): the sweep appends
     * a manifest record plus one record per finished point to this
     * file of sealed records (core/sweep_journal.h), each flushed and
     * fsync'd before the point's result is delivered.
     * SweepEngine::resume() replays the journal to skip completed work
     * after a crash.
     */
    std::string journal_path;
};

/** Terminal state of one grid point under supervised execution. */
enum class PointStatus
{
    /** Ran to the end; summary (and recorder, if kept) are valid. */
    Completed,
    /**
     * Every attempt failed; SweepPointResult::failure holds the last
     * attempt's classified failure and the summary is empty. The rest
     * of the sweep ran on.
     */
    Quarantined,
    /**
     * Never ran: the sweep was cancelled before this point started.
     * Skipped points are not journaled and re-run on resume.
     */
    Skipped,
};

/** Human-readable status name ("completed", "quarantined", ...). */
const char *toString(PointStatus status);

/** Result of one grid point. */
struct SweepPointResult
{
    /** Position in the input grid (results keep grid order). */
    size_t index = 0;
    /** SweepPoint::label, carried through. */
    std::string label;
    /** Policy the run executed under. */
    sched::Policy policy = sched::Policy::TegOriginal;
    /** How the point ended. */
    PointStatus status = PointStatus::Skipped;
    /** Run summary; bit-identical to a serial H2PSystem::run(). */
    RunSummary summary;
    /** Classified failure of the last attempt (Quarantined only). */
    RunFailure failure;
    /** Run attempts consumed (1 = first try; 0 = never started). */
    size_t attempts = 0;
    /** Per-step channels, or null when SweepOptions::keep_recorders
     * is off (or the point was skipped/quarantined/restored from a
     * journal). */
    std::shared_ptr<sim::Recorder> recorder;
    /** Wall time of this run, seconds. */
    double duration_s = 0.0;
    /** True when this result was restored from a journal by
     * SweepEngine::resume() rather than computed in this process. */
    bool restored = false;

    /**
     * The one field list of a finished point, the sweep journal's
     * record: a Completed point carries its summary, any other its
     * failure. The recorder and the restored flag are not in it.
     */
    template <typename V>
    void visit(V &v)
    {
        v("index", index);
        v("status", status);
        expect(static_cast<uint32_t>(status) <=
                   static_cast<uint32_t>(PointStatus::Quarantined),
               "journal record carries unknown point status ",
               static_cast<uint32_t>(status));
        v("attempts", attempts);
        v("label", label);
        v("policy", policy);
        expect(static_cast<uint32_t>(policy) <= 1,
               "journal record carries unknown policy ",
               static_cast<uint32_t>(policy));
        v("duration_s", duration_s);
        if (status == PointStatus::Completed)
            summary.visit(v);
        else
            failure.visit(v);
    }
};

/** Result of a whole sweep. */
struct SweepResult
{
    /**
     * One entry per grid point, in grid order regardless of the
     * completion order under parallel execution.
     */
    std::vector<SweepPointResult> points;
    /** Runs that actually completed (== points.size() unless
     * cancelled). */
    size_t runs_completed = 0;
    /** Wall time of the whole sweep, seconds. */
    double wall_s = 0.0;
    /** Sweep workers actually used (after clamping). */
    size_t workers = 1;
    /**
     * Distinct look-up tables sampled during the sweep — the rest
     * were shared via sched::LookupSpaceCache. A grid varying only
     * TEG, optimizer or trace parameters builds exactly one.
     */
    uint64_t lookup_spaces_built = 0;
    /** True when SweepOptions::cancel cut the sweep short. */
    bool cancelled = false;
    /** Points that exhausted their attempts and were set aside. */
    size_t quarantined = 0;
    /** Extra attempts consumed by retryable failures, sweep-wide. */
    size_t retries = 0;
    /** Points restored from the journal by SweepEngine::resume()
     * instead of being recomputed. */
    size_t points_restored = 0;
};

} // namespace core
} // namespace h2p

#endif // H2P_CORE_SWEEP_TYPES_H_
