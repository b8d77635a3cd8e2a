/**
 * @file
 * The simulation session: one composable step pipeline.
 *
 * Every trace-driven run — clean or faulted, batch or interactive —
 * advances through the same sequence of optional stages:
 *
 *   fault advance -> watchdog shaping -> sensing / safe-mode
 *   assessment -> control pipeline (scheduling decision) ->
 *   datacenter evaluation -> stage feedback -> recording /
 *   accumulation -> observability
 *
 * The decide stage runs a control::ControlPipeline: the one the
 * caller passed to H2PSystem::startSession()/resumeSession() (custom
 * control), or else the one the system's PipelineFactory builds for
 * the policy (the canonical TEG_Original / TEG_LoadBalance stage
 * pairs, or the autonomous balancer when [balancer] is enabled). A
 * session gets its pipeline when it starts and keeps it to the end.
 *
 * Which stages are active is decided once, from the configuration,
 * when a session starts; H2PSystem::run() is a thin wrapper that
 * steps a session to completion, clean or resilient. A session also
 * exposes the loop incrementally (SimSession::step()) for
 * long-horizon and controller-in-the-loop workloads, and can
 * checkpoint all mutable loop state to disk and restore it
 * bit-identically: a run stepped N steps, checkpointed, restored and
 * finished equals an uninterrupted run sample for sample.
 */

#ifndef H2P_CORE_SIM_ENGINE_H_
#define H2P_CORE_SIM_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/datacenter.h"
#include "control/stages.h"
#include "core/run_types.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "obs/observability.h"
#include "sched/cooling_optimizer.h"
#include "sched/policy.h"
#include "sched/safe_mode.h"
#include "sim/recorder.h"
#include "util/bytes.h"
#include "util/cancellation.h"
#include "workload/trace.h"

namespace h2p {
namespace core {

class H2PSystem;

/**
 * Cooperative execution budget of one session, checked at every step
 * boundary. A violated guard stops the run by throwing RunError with
 * the matching FailureKind (Cancelled for the token, Timeout for the
 * deadline and the step budget) and the offending step attached —
 * nothing is interrupted mid-step, so all state produced before the
 * stop is the deterministic state.
 */
struct RunGuard
{
    /** Cancellation latch to honor; null = none. Borrowed. */
    const util::CancelToken *cancel = nullptr;
    /**
     * Wall-clock budget in seconds, counted from the moment the guard
     * is installed (setGuard); 0 = unlimited.
     */
    double deadline_s = 0.0;
    /**
     * Maximum steps this session may evaluate after the guard is
     * installed; 0 = unlimited.
     */
    size_t step_budget = 0;

    bool active() const
    {
        return cancel != nullptr || deadline_s > 0.0 || step_budget > 0;
    }
};

/**
 * Running sums a step loop maintains and the summary is derived from.
 * One accumulator serves both the clean and the resilient pipeline;
 * the resilience fields simply stay zero when those stages are off.
 * What a recorded channel already holds (mean inlet temperature,
 * safe-mode circulation-steps, peak faulted servers) is derived from
 * the recorder at finish() instead.
 */
struct SummaryAccumulator
{
    double teg_j = 0.0;
    double cpu_j = 0.0;
    double plant_j = 0.0;
    double pump_j = 0.0;
    double teg_lost_j = 0.0;
    size_t safe_steps = 0;
    std::vector<size_t> circ_safe_steps;

    /** Save or load the sums (checkpoint state). */
    void visit(util::Archive &ar);
};

/**
 * One trace-driven run in progress.
 *
 * Obtained from H2PSystem::startSession() (fresh) or
 * H2PSystem::resumeSession() (from a checkpoint); drive it with
 * step() until done(), then collect the RunResult with finish().
 * The session keeps pointers into the system and the trace it was
 * started with — both must outlive it.
 *
 * Sessions are move-only and single-use: finish() consumes the run.
 */
class SimSession
{
  public:
    SimSession(SimSession &&) = default;
    SimSession &operator=(SimSession &&) = default;
    SimSession(const SimSession &) = delete;
    SimSession &operator=(const SimSession &) = delete;

    /** Total steps in the driving trace. */
    size_t numSteps() const { return trace_->numSteps(); }

    /** Steps completed so far (also the next step's index). */
    size_t cursor() const { return cursor_; }

    /** True once every trace step has been evaluated. */
    bool done() const { return cursor_ >= numSteps(); }

    /** Scheme this session runs under. */
    sched::Policy policy() const { return policy_; }

    /** Evaluate the next scheduling interval; throws when done(). */
    void step();

    /** Step the remaining intervals (no-op when already done). */
    void runToCompletion();

    /**
     * Validate, export observability and return the run's result.
     * The session must be done(); a session can be finished once.
     */
    RunResult finish();

    /**
     * Serialize all mutable loop state to @p path so a later
     * H2PSystem::resumeSession() continues this run bit-identically:
     * sensor latches (the fault timeline is replayed to the cursor),
     * watchdog caps and backlog, safe-mode supervisor state with the
     * prior-interval readings, summary accumulators and every
     * recorded sample. The file embeds
     * a version, configuration/trace fingerprints and a checksum;
     * restore rejects corrupt or mismatched checkpoints loudly.
     *
     * Declared-stateful control-stage state (e.g. the thermal
     * balancer's drain latches and feedback view) is serialized with
     * everything else, keyed by stage name. A session cannot rebuild
     * a custom pipeline itself, so such checkpoints are flagged:
     * resuming one without a pipeline is refused.
     */
    void saveCheckpoint(const std::string &path) const;

    /**
     * The control pipeline driving this session's decide stage:
     * the custom one it was started or resumed with, else the
     * policy's built-in one. Never null.
     */
    control::ControlPipeline *pipeline() { return pipeline_.get(); }
    const control::ControlPipeline *pipeline() const
    {
        return pipeline_.get();
    }

    /**
     * Install a cooperative execution budget: the deadline clock and
     * the step budget start now, and every subsequent step() first
     * checks the guard, throwing RunError (Cancelled/Timeout) with
     * step context when violated. Replaces any prior guard; a
     * default-constructed RunGuard clears it. The token, when set,
     * must outlive the session.
     */
    void setGuard(const RunGuard &guard);

    /** Datacenter state of the last evaluated step. */
    const cluster::DatacenterState &lastState() const;

    /** Scheduling decision of the last evaluated step. */
    const sched::ScheduleDecision &lastDecision() const;

    /** (Shaped) utilizations submitted at the last evaluated step. */
    const std::vector<double> &lastUtils() const;

    /** The recorder accumulating this run's channels. */
    const sim::Recorder &recorder() const { return *recorder_; }

  private:
    friend class H2PSystem;

    /**
     * Begin a fresh session over @p trace under @p policy, driven by
     * @p pipeline (null = the policy's built-in pipeline).
     */
    SimSession(const H2PSystem &sys,
               const workload::UtilizationTrace &trace,
               sched::Policy policy,
               std::unique_ptr<control::ControlPipeline> pipeline);

    /**
     * Restore a session from a checkpoint written by saveCheckpoint().
     * The trace must be the one the checkpointed run was driven by
     * (fingerprint-verified), and @p sys's configuration must match
     * the checkpoint's (core::configDigest: every INI key outside
     * [obs], plus the scripted faults). The checkpoint's stage state
     * goes, by name, into @p pipeline (null = the built-in one); a
     * stage it names that the pipeline lacks, or a custom-control
     * checkpoint with a null @p pipeline, is refused.
     */
    static SimSession resume(
        const H2PSystem &sys, const std::string &path,
        const workload::UtilizationTrace &trace,
        std::unique_ptr<control::ControlPipeline> pipeline);

    /**
     * Save or load everything a checkpoint carries after its header:
     * accumulators, recorded channels and, on resilient runs, the
     * fault injector's sensor latches, the watchdog and the safety
     * monitor (with the previous interval's readings and actions).
     */
    void visitSession(util::Archive &ar);

    /** Record a checkpoint save/restore event (no-op without obs). */
    void checkpointEvent(std::string detail) const;

    /** Resolve the run's obs handles and log run_start (if obs on). */
    void beginObsRun();
    /** Fold the finished run into obs and write its exports. */
    void finishObsRun(const RunSummary &summary) const;

    /** Resolved recorder channel handles (see sim/channels.h). */
    struct Channels
    {
        sim::Recorder::Channel teg, cpu, pre, tin, plant, pump, die,
            umean, umax;
        // Resilient-only channels; unresolved on clean runs.
        sim::Recorder::Channel faulted, lost, safe_mode, throttled;
    };

    /** Per-run observability bookkeeping (idle when obs is off). */
    struct ObsRun
    {
        obs::Observability *obs = nullptr;
        obs::SpanRegistry::SpanId span_step;
        obs::SpanRegistry::SpanId span_decide;
        obs::SpanRegistry::SpanId span_evaluate;
        obs::Counter steps;
        obs::HistogramMetric max_die_hist;
        obs::HistogramMetric teg_hist;
        size_t cache_hits0 = 0;
        size_t cache_misses0 = 0;
    };

    const H2PSystem *sys_ = nullptr;
    const workload::UtilizationTrace *trace_ = nullptr;
    sched::Policy policy_ = sched::Policy::TegOriginal;
    /** Fault/safe-mode stages active? */
    bool resilient_ = false;
    /** Watchdog-shaping stage active? */
    bool use_watchdog_ = false;
    size_t cursor_ = 0;
    bool finished_ = false;

    std::shared_ptr<sim::Recorder> recorder_;
    Channels ch_;
    SummaryAccumulator acc_;

    // Resilient-stage state; null/empty on clean runs.
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<fault::ThermalTripWatchdog> watchdog_;
    /** Owns the previous interval's readings and the actions. */
    std::unique_ptr<sched::SafetyMonitor> monitor_;

    // Per-step scratch, allocated once and reused.
    std::vector<double> utils_;
    sched::ScheduleDecision decision_;
    cluster::DatacenterState state_;

    ObsRun orun_;
    size_t seen_faults_ = 0;
    size_t seen_trips_ = 0;

    /** The decide stage; never null. */
    std::unique_ptr<control::ControlPipeline> pipeline_;
    /** Running under user-supplied control (not factory-rebuildable)? */
    bool custom_control_ = false;

    // Cooperative supervision (setGuard); inactive by default.
    RunGuard guard_;
    std::chrono::steady_clock::time_point guard_start_{};
    size_t guard_start_cursor_ = 0;
};

} // namespace core
} // namespace h2p

#endif // H2P_CORE_SIM_ENGINE_H_
