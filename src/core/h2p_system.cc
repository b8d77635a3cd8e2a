#include "core/h2p_system.h"

#include <utility>

#include "sched/lookup_cache.h"
#include "util/error.h"

namespace h2p {
namespace core {

H2PSystem::H2PSystem(const H2PConfig &config) : config_(config)
{
    dc_ = std::make_unique<cluster::Datacenter>(config.datacenter);
    // The sampled look-up table is a pure function of the server
    // model and the grid extents; identical models share one
    // immutable instance instead of re-sampling ~14k grid points per
    // system (the dominant construction cost in sweeps).
    space_ = sched::LookupSpaceCache::instance().acquire(
        config.datacenter.server, config.lookup);
    teg_ = std::make_unique<thermal::TegModule>(
        config.datacenter.server.tegs_per_server,
        config.datacenter.server.teg);

    // The optimizer plans against the datacenter's cold source, at
    // T_safe and, under safe mode, at T_safe - margin; the decision
    // cache is a [perf] knob. Its tables are shared like the space:
    // systems of one configuration compute each decision once.
    const sched::SafeModeParams &sm = config.safe_mode;
    optimizer_ = std::make_unique<sched::CoolingOptimizer>(
        *space_, *teg_, config.datacenter.cold_source_c, config.optimizer,
        sm.enabled ? sm.margin_c : 0.0,
        config.perf.optimizer_cache_quantum);

    // The control plane: every session's decide stage is a pipeline
    // built here. The balancer compares measured headroom against the
    // same T_safe the optimizer plans toward.
    pipelines_ = std::make_unique<control::PipelineFactory>(
        *dc_, *optimizer_, config.balancer, config.optimizer.t_safe_c);

    if (config.obs.enabled)
        obs_ = std::make_unique<obs::Observability>(config.obs);
}

cluster::DatacenterState
H2PSystem::evaluateStep(const std::vector<double> &utils,
                        sched::Policy policy) const
{
    // A single fault-oblivious evaluation under a configuration that
    // asks for faults or safe-mode control would silently ignore
    // both; refuse instead of returning misleading numbers.
    expect(!config_.faults.enabled() && !config_.safe_mode.enabled,
           "evaluateStep() ignores fault injection and safe-mode "
           "control, which this configuration enables; use run() or "
           "startSession() so the resilient pipeline applies them");
    // The same decide and evaluate calls as a fresh session's step 0
    // (clean run: no safe-mode actions, no hardware health), so the
    // result is bit-identical to that step's state.
    std::unique_ptr<control::ControlPipeline> pipeline =
        pipelines_->make(policy);
    control::ControlContext ctx;
    ctx.dc = dc_.get();
    ctx.utils = &utils;
    sched::ScheduleDecision decision;
    pipeline->run(ctx, decision);
    cluster::DatacenterState state;
    dc_->evaluateInto(decision.utils, decision.settings, nullptr, state);
    return state;
}

RunResult
H2PSystem::run(const workload::UtilizationTrace &trace,
               sched::Policy policy) const
{
    SimSession session(*this, trace, policy, nullptr);
    session.runToCompletion();
    return session.finish();
}

SimSession
H2PSystem::startSession(
    const workload::UtilizationTrace &trace, sched::Policy policy,
    std::unique_ptr<control::ControlPipeline> pipeline) const
{
    return SimSession(*this, trace, policy, std::move(pipeline));
}

SimSession
H2PSystem::resumeSession(
    const std::string &path, const workload::UtilizationTrace &trace,
    std::unique_ptr<control::ControlPipeline> pipeline) const
{
    return SimSession::resume(*this, path, trace, std::move(pipeline));
}

} // namespace core
} // namespace h2p
