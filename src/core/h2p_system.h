/**
 * @file
 * The H2P system facade: the public entry point of the library.
 *
 * Wires the datacenter model, the look-up space, the cooling
 * optimizer and the scheduling policy together and exposes trace
 * execution two ways:
 *
 *  - run(): batch — step the whole trace and return the result;
 *  - startSession()/resumeSession(): incremental — a SimSession is
 *    stepped interval by interval, can be checkpointed to disk at any
 *    point and later resumed bit-identically, and runs either the
 *    policy's built-in decide stage or a custom control pipeline
 *    given to it when it starts or resumes.
 *
 * run() steps a core::SimSession to completion, so a session-stepped
 * run is sample-for-sample identical to run(). Sessions point into
 * the system, which therefore neither copies nor moves.
 */

#ifndef H2P_CORE_H2P_SYSTEM_H_
#define H2P_CORE_H2P_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/datacenter.h"
#include "control/stages.h"
#include "core/run_types.h"
#include "core/sim_engine.h"
#include "obs/observability.h"
#include "sched/cooling_optimizer.h"
#include "sched/lookup_space.h"
#include "sched/policy.h"
#include "sim/recorder.h"
#include "workload/trace.h"

namespace h2p {
namespace core {

/**
 * The Heat-to-Power system.
 */
class H2PSystem
{
  public:
    H2PSystem() : H2PSystem(H2PConfig{}) {}

    explicit H2PSystem(const H2PConfig &config);

    H2PSystem(const H2PSystem &) = delete;
    H2PSystem &operator=(const H2PSystem &) = delete;

    /**
     * Run a utilization trace under @p policy and collect metrics.
     * The trace must cover at least the datacenter's server count;
     * extra servers are ignored (the paper slices 1,000 out of the
     * Google trace the same way).
     *
     * When the configuration enables a fault scenario or safe-mode
     * control the session activates the resilient pipeline stages:
     * hardware health from the FaultInjector, sensor readings
     * corrupted on their way to the SafetyMonitor, and (if enabled)
     * the thermal-trip watchdog shaping utilizations. With neither
     * enabled the original fault-free pipeline runs unchanged.
     */
    RunResult run(const workload::UtilizationTrace &trace,
                  sched::Policy policy) const;

    /**
     * Begin an incremental run over @p trace: the returned session is
     * stepped explicitly (SimSession::step()) and, with the built-in
     * pipeline, produces exactly the samples and summary run() would.
     * The system and the trace must outlive the session.
     *
     * @p pipeline is the session's decide stage for the whole run —
     * the seam for causal/predictive controllers, RL-style agents and
     * what-if probes that still want the rest of the step loop. Null
     * means the policy's built-in pipeline (pipelines()).
     */
    SimSession startSession(
        const workload::UtilizationTrace &trace, sched::Policy policy,
        std::unique_ptr<control::ControlPipeline> pipeline = nullptr)
        const;

    /**
     * Restore a session from a checkpoint written by
     * SimSession::saveCheckpoint(). @p trace must be the trace the
     * checkpointed run was driven by and this system's configuration
     * must match the checkpoint's (both fingerprint-verified).
     * Stepping the restored session to completion reproduces the
     * uninterrupted run bit-identically.
     *
     * The checkpoint's control-stage state goes, by name, into
     * @p pipeline (null = the policy's built-in pipeline); a stage it
     * names that the pipeline lacks is an Error. A checkpoint taken
     * under custom control must be resumed with that control: a null
     * @p pipeline is refused with an Error.
     */
    SimSession resumeSession(
        const std::string &path, const workload::UtilizationTrace &trace,
        std::unique_ptr<control::ControlPipeline> pipeline = nullptr)
        const;

    /**
     * Evaluate a single interval (used by examples and tests): the
     * policy's control pipeline decides, the datacenter evaluates —
     * bit-identical to step 0 of a fresh session over @p utils.
     *
     * Fault-oblivious by construction: it refuses to run (loudly)
     * when the configuration enables a fault scenario or safe-mode
     * control, because it would silently ignore both — use run() or
     * a session instead.
     */
    cluster::DatacenterState evaluateStep(
        const std::vector<double> &utils, sched::Policy policy) const;

    const cluster::Datacenter &datacenter() const { return *dc_; }

    /**
     * The sampled cooling look-up space. Shared and immutable:
     * systems built from identical server models and grid extents
     * reference one table (sched::LookupSpaceCache) instead of each
     * re-sampling it.
     */
    const sched::LookupSpace &lookupSpace() const { return *space_; }
    const sched::CoolingOptimizer &optimizer() const
    {
        return *optimizer_;
    }
    const H2PConfig &config() const { return config_; }

    /**
     * The observability sink, or null when [obs] is disabled. State
     * accumulates across run() calls on the same system (counters and
     * spans are cumulative); exporters write at the end of each run.
     */
    obs::Observability *observability() const { return obs_.get(); }

    /**
     * Builds the per-policy control pipeline sessions run: the
     * canonical TEG_Original/TEG_LoadBalance stages, or the
     * autonomous thermal balancer when [balancer] is enabled.
     */
    const control::PipelineFactory &pipelines() const
    {
        return *pipelines_;
    }

  private:
    H2PConfig config_;
    std::unique_ptr<cluster::Datacenter> dc_;
    std::shared_ptr<const sched::LookupSpace> space_;
    std::unique_ptr<thermal::TegModule> teg_;
    std::unique_ptr<sched::CoolingOptimizer> optimizer_;
    std::unique_ptr<control::PipelineFactory> pipelines_;
    std::unique_ptr<obs::Observability> obs_;
};

} // namespace core
} // namespace h2p

#endif // H2P_CORE_H2P_SYSTEM_H_
