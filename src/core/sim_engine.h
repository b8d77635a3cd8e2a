/**
 * @file
 * The simulation engine: one composable step pipeline.
 *
 * Every trace-driven run — clean or faulted, batch or interactive —
 * advances through the same sequence of optional stages:
 *
 *   fault advance -> watchdog shaping -> sensing / safe-mode
 *   assessment -> control pipeline (scheduling decision) ->
 *   datacenter evaluation -> stage feedback -> recording /
 *   accumulation -> observability
 *
 * The decide stage runs a control::ControlPipeline built per policy
 * by the system's PipelineFactory (the canonical TEG_Original /
 * TEG_LoadBalance stage pairs, or the autonomous balancer when
 * [balancer] is enabled); SimSession::setPipeline() swaps in custom
 * control on the same seam.
 *
 * Which stages are active is decided once, from the configuration,
 * when a session starts; H2PSystem::run() is a thin wrapper that
 * steps a session to completion, clean or resilient. The engine
 * additionally exposes the loop incrementally (SimSession::step())
 * for long-horizon and controller-in-the-loop workloads, and can
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
#include <utility>
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

class SimEngine;

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
     * Optional second latch, checked alongside `cancel`; either one
     * stops the run. Typically the process-wide signal token
     * (util::signalCancelToken()) riding next to a supervisor's own
     * token, so both Ctrl-C and programmatic cancellation reach an
     * in-flight run at its next step boundary. Borrowed.
     */
    const util::CancelToken *cancel_alt = nullptr;
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
        return cancel != nullptr || cancel_alt != nullptr ||
               deadline_s > 0.0 || step_budget > 0;
    }
};

/**
 * Running sums a step loop maintains and the summary is derived from.
 * One accumulator serves both the clean and the resilient pipeline;
 * the resilience fields simply stay zero when those stages are off.
 */
struct SummaryAccumulator
{
    double teg_j = 0.0;
    double cpu_j = 0.0;
    double plant_j = 0.0;
    double pump_j = 0.0;
    double teg_lost_j = 0.0;
    double t_in_sum = 0.0;
    size_t safe_steps = 0;
    size_t safe_mode_steps = 0;
    size_t max_faulted = 0;
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
    size_t numSteps() const;

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
     * fault-timeline cursor and sensor latches, watchdog caps and
     * backlog, safe-mode supervisor state, prior-interval readings,
     * summary accumulators and every recorded sample. The file embeds
     * a version, configuration/trace fingerprints and a checksum;
     * restore rejects corrupt or mismatched checkpoints loudly.
     *
     * Declared-stateful control-stage state (e.g. the thermal
     * balancer's drain latches and feedback view) is serialized with
     * everything else, keyed by stage name. The engine cannot rebuild
     * a custom pipeline itself; such checkpoints are flagged, and the
     * resumed session refuses to step until the caller re-attaches
     * its pipeline with setPipeline(), which also restores any
     * checkpointed stage state whose names match.
     */
    void saveCheckpoint(const std::string &path) const;

    /**
     * Install a custom control pipeline as this session's decide
     * stage — the seam for causal/predictive controllers, RL-style
     * agents and what-if probes that still want the rest of the step
     * loop. Any control-stage state the session was resumed with is
     * restored into the new pipeline's stages by name (missing names
     * are an error). The engine checkpoints the pipeline's
     * declared-stateful stages but cannot rebuild a *custom* pipeline
     * itself — resume flags it and demands a re-attach.
     *
     * nullptr restores the policy's built-in pipeline; that is
     * refused while checkpointed custom-stage state awaits a
     * re-attach.
     */
    void setPipeline(
        std::unique_ptr<control::ControlPipeline> pipeline);

    /**
     * The control pipeline driving this session's decide stage.
     * Null only after a custom-control resume, before re-attach.
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
    friend class SimEngine;
    SimSession() = default;

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

    const SimEngine *engine_ = nullptr;
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
    std::unique_ptr<sched::SafetyMonitor> monitor_;
    std::vector<sched::SensorReading> die_read_;
    std::vector<sched::SensorReading> flow_read_;
    std::vector<double> commanded_flow_;
    bool have_readings_ = false;
    std::vector<sched::SafeModeAction> actions_;

    // Per-step scratch, allocated once and reused.
    std::vector<double> utils_;
    sched::ScheduleDecision decision_;
    cluster::DatacenterState state_;

    ObsRun orun_;
    size_t seen_faults_ = 0;
    size_t seen_trips_ = 0;

    /**
     * The decide stage. Built by the engine's PipelineFactory for
     * fresh sessions; replaced by setPipeline(). Null
     * only after a custom-control resume, until re-attach.
     */
    std::unique_ptr<control::ControlPipeline> pipeline_;
    /** Running under user-supplied control (not factory-rebuildable)? */
    bool custom_control_ = false;
    /**
     * Checkpointed control-stage state awaiting a re-attached
     * pipeline (custom-control resume); applied by setPipeline().
     */
    std::vector<std::pair<std::string, std::string>> pending_state_;

    // Cooperative supervision (setGuard); inactive by default.
    RunGuard guard_;
    std::chrono::steady_clock::time_point guard_start_{};
    size_t guard_start_cursor_ = 0;
};

/**
 * The step pipeline and its wiring into one system's components.
 * Owned by H2PSystem; stateless across runs (all per-run state lives
 * in the SimSession), so any number of sessions can be derived from
 * the same engine sequentially.
 */
class SimEngine
{
  public:
    /** Non-owning wiring into the system's long-lived components. */
    struct Wiring
    {
        const H2PConfig *config = nullptr;
        cluster::Datacenter *dc = nullptr;
        sched::CoolingOptimizer *optimizer = nullptr;
        /** Builds the per-policy control pipeline sessions run. */
        const control::PipelineFactory *pipelines = nullptr;
        /** Null when [obs] is disabled. */
        obs::Observability *obs = nullptr;
    };

    explicit SimEngine(const Wiring &wiring);

    /** Begin a fresh session over @p trace under @p policy. */
    SimSession start(const workload::UtilizationTrace &trace,
                     sched::Policy policy) const;

    /**
     * Restore a session from a checkpoint written by
     * SimSession::saveCheckpoint(). The trace must be the one the
     * checkpointed run was driven by (fingerprint-verified), and this
     * engine's configuration must match the checkpoint's (topology,
     * fault scenario, safe mode and result-relevant optimizer
     * parameters).
     */
    SimSession resume(const std::string &path,
                      const workload::UtilizationTrace &trace) const;

    /**
     * Digest of every configuration parameter that can change run
     * results; embedded in checkpoints to reject restores into a
     * mismatched system.
     */
    uint64_t configFingerprint() const;

  private:
    friend class SimSession;

    /** Advance @p s by one scheduling interval (the pipeline). */
    void stepOnce(SimSession &s) const;

    RunResult finish(SimSession &s) const;
    void saveCheckpoint(const SimSession &s,
                        const std::string &path) const;

    /**
     * Save or load everything a checkpoint carries after its header:
     * accumulators, recorded channels and, on resilient runs, the
     * sensor latches, watchdog, safety monitor and the previous
     * interval's readings and actions.
     */
    void visitSession(SimSession &s, util::Archive &ar) const;

    /** Record a checkpoint save/restore event (no-op without obs). */
    void checkpointEvent(size_t step, std::string detail) const;

    SimSession::ObsRun beginObsRun(sched::Policy policy, double dt,
                                   size_t num_steps) const;
    void finishObsRun(const SimSession::ObsRun &orun,
                      const sim::Recorder &rec,
                      const RunSummary &summary) const;

    Wiring w_;
};

} // namespace core
} // namespace h2p

#endif // H2P_CORE_SIM_ENGINE_H_
