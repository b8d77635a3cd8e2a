/**
 * @file
 * The composable control plane: stages and pipelines.
 *
 * Every per-interval scheduling decision — the paper's TEG_Original /
 * TEG_LoadBalance schemes, the autonomous thermal balancer, or a
 * user's custom control — is expressed as an ordered pipeline of
 * ControlStages. A stage transforms the in-progress
 * ScheduleDecision (rebalance the utilizations, choose cooling
 * settings, evacuate a circulation); the pipeline seeds the decision
 * with the interval's shaped utilizations, runs the stages in order
 * and validates the final shape. A SimSession runs a pipeline as its
 * decide stage for the whole run (a custom one is passed to
 * H2PSystem::startSession() or resumeSession()), so the canonical
 * pipelines are bit-identical to the hard-wired scheduler they
 * replaced and custom pipelines compose with the rest of the step
 * loop (faults, safe mode, checkpointing) for free.
 *
 * Stages that carry state across intervals declare stateful() and
 * describe that state once in visitState(); a session embeds it in
 * its checkpoints keyed by stage name, so a resumed balancer run
 * continues byte-identically.
 */

#ifndef H2P_CONTROL_CONTROL_STAGE_H_
#define H2P_CONTROL_CONTROL_STAGE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/datacenter.h"
#include "obs/observability.h"
#include "sched/policy.h"
#include "sched/safe_mode.h"
#include "util/bytes.h"

namespace h2p {
namespace control {

/**
 * Everything a stage may read about the current interval. Borrowed
 * pointers are owned by the session; null members mean the
 * corresponding pipeline feature is off for this run (actions/health
 * on clean runs, obs when [obs] is disabled).
 */
struct ControlContext
{
    /** Step index within the trace. */
    size_t step = 0;
    /** Scheduling interval, s. */
    double dt_s = 0.0;
    /** Datacenter layout (never null inside a pipeline run). */
    const cluster::Datacenter *dc = nullptr;
    /**
     * The interval's (watchdog-shaped) requested utilizations — the
     * pipeline input, already copied into the decision's utils before
     * the first stage runs. Never null inside a pipeline run.
     */
    const std::vector<double> *utils = nullptr;
    /** Safe-mode actions per circulation; null on clean runs. */
    const std::vector<sched::SafeModeAction> *actions = nullptr;
    /** Hardware health; null on clean runs. */
    const cluster::DatacenterHealth *health = nullptr;
    /** Observability sink; null when [obs] is disabled. */
    obs::Observability *obs = nullptr;
};

/**
 * One step of a control pipeline. Implementations transform the
 * decision in place; they may rely on the decision's utils holding
 * the pipeline input (or the previous stage's output) on entry.
 */
class ControlStage
{
  public:
    virtual ~ControlStage() = default;

    /** Stable stage name; keys checkpointed state. */
    virtual const char *name() const = 0;

    /** Transform the decision for this interval. */
    virtual void apply(const ControlContext &ctx,
                       sched::ScheduleDecision &decision) = 0;

    /**
     * Post-evaluation feedback: the datacenter state the decision
     * produced. Called once per step after evaluation; stages that
     * act on measurements (thermal headroom, harvested power) keep
     * them as internal — and therefore checkpointed — state, so a
     * resumed run sees exactly the feedback the original run saw.
     */
    virtual void observe(const ControlContext &ctx,
                         const cluster::DatacenterState &state)
    {
        (void)ctx;
        (void)state;
    }

    /** Does this stage carry state across intervals? */
    virtual bool stateful() const { return false; }

    /**
     * Save or load cross-interval state (stateful stages only): one
     * field list serves both directions (see util::Archive).
     */
    virtual void visitState(util::Archive &ar) { (void)ar; }
};

/**
 * An ordered, owning list of stages plus the run harness. One
 * pipeline instance belongs to one session (stages may be stateful);
 * fresh instances come from a PipelineFactory or from user code.
 */
class ControlPipeline
{
  public:
    explicit ControlPipeline(std::string name);

    ControlPipeline(ControlPipeline &&) = default;
    ControlPipeline &operator=(ControlPipeline &&) = default;
    ControlPipeline(const ControlPipeline &) = delete;
    ControlPipeline &operator=(const ControlPipeline &) = delete;

    /** Append a stage; returns *this for chaining. */
    ControlPipeline &add(std::unique_ptr<ControlStage> stage);

    const std::string &name() const { return name_; }

    /** Find a stage by name; null when absent. */
    ControlStage *find(const std::string &stage_name);
    const ControlStage *find(const std::string &stage_name) const;

    /**
     * Produce this interval's decision: seed the decision's utils
     * from the context's input utilizations, clear its settings,
     * run every stage in order and validate the final shape
     * (numServers utilizations, one setting per circulation).
     */
    void run(const ControlContext &ctx, sched::ScheduleDecision &out);

    /** Forward post-evaluation feedback to every stage. */
    void observe(const ControlContext &ctx,
                 const cluster::DatacenterState &state);

    /**
     * Snapshot the state of every stateful stage as (name, bytes)
     * pairs — the checkpoint representation.
     */
    std::vector<std::pair<std::string, std::string>> captureState();

    /**
     * Restore a captureState() snapshot into this pipeline's stages,
     * matched by name. Throws when a named stage is missing or its
     * bytes are not fully consumed (shape drift).
     */
    void applyState(
        const std::vector<std::pair<std::string, std::string>> &state);

  private:
    std::string name_;
    std::vector<std::unique_ptr<ControlStage>> stages_;
};

} // namespace control
} // namespace h2p

#endif // H2P_CONTROL_CONTROL_STAGE_H_
