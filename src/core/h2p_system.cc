#include "core/h2p_system.h"

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

    // The optimizer's cold source must match the datacenter's; the
    // decision cache is a [perf] knob. Its table is shared like the
    // space: systems of one configuration compute each decision once.
    sched::OptimizerParams opt = config.optimizer;
    opt.cold_source_c = config.datacenter.cold_source_c;
    opt.cache_util_quantum = config.perf.optimizer_cache_quantum;
    optimizer_ = std::make_unique<sched::CoolingOptimizer>(
        *space_, *teg_, opt,
        sched::LookupSpaceCache::instance().decisionTable(*space_, *teg_,
                                                          opt));

    // The control plane: every session's decide stage is a pipeline
    // built here. The balancer compares measured headroom against the
    // same T_safe the optimizer plans toward.
    pipelines_ = std::make_unique<control::PipelineFactory>(
        *dc_, *optimizer_, config.balancer, opt.t_safe_c);

    if (config.obs.enabled)
        obs_ = std::make_unique<obs::Observability>(config.obs);

    SimEngine::Wiring wiring;
    wiring.config = &config_;
    wiring.dc = dc_.get();
    wiring.optimizer = optimizer_.get();
    wiring.pipelines = pipelines_.get();
    wiring.obs = obs_.get();
    engine_ = std::make_unique<SimEngine>(wiring);
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
    SimSession session = engine_->start(trace, policy);
    session.runToCompletion();
    return session.finish();
}

SimSession
H2PSystem::startSession(const workload::UtilizationTrace &trace,
                        sched::Policy policy) const
{
    return engine_->start(trace, policy);
}

SimSession
H2PSystem::resumeSession(const std::string &path,
                         const workload::UtilizationTrace &trace) const
{
    return engine_->resume(path, trace);
}

} // namespace core
} // namespace h2p
