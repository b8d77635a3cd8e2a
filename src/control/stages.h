/**
 * @file
 * The canonical control stages and the pipeline factory.
 *
 * BalanceStage + CoolingStage reproduce the paper's two schemes
 * exactly: [CoolingStage] is TEG_Original (plan on U_max) and
 * [BalanceStage, CoolingStage] is TEG_LoadBalance (flatten to the
 * mean, then plan — the max over the flattened slice IS the mean, so
 * the planned utilization is bit-identical to the hard-wired
 * scheduler these stages replaced, which tests enforce against a
 * test-only oracle).
 *
 * PipelineFactory builds the per-policy pipeline a session runs:
 * the canonical pair above, or — when [balancer] is enabled — the
 * autonomous ThermalBalancer in place of the one-shot BalanceStage.
 */

#ifndef H2P_CONTROL_STAGES_H_
#define H2P_CONTROL_STAGES_H_

#include <memory>
#include <utility>
#include <vector>

#include "control/control_stage.h"
#include "control/thermal_balancer.h"
#include "sched/cooling_optimizer.h"
#include "sched/policy.h"

namespace h2p {
namespace control {

/**
 * Flatten every circulation to its mean utilization (the paper's
 * one-shot idealized balancing, Sec. V-B2). Stateless.
 */
class BalanceStage : public ControlStage
{
  public:
    explicit BalanceStage(const cluster::Datacenter &dc) : dc_(dc) {}

    const char *name() const override { return "balance"; }
    void apply(const ControlContext &ctx,
               sched::ScheduleDecision &decision) override;

  private:
    const cluster::Datacenter &dc_;
};

/**
 * Choose each circulation's cooling setting: plan on the slice's
 * maximum utilization and run the cooling optimizer under the
 * circulation's safe-mode action (Normal / WidenMargin /
 * ColdFallback). Always the terminal stage of a built-in pipeline.
 * Stateless.
 */
class CoolingStage : public ControlStage
{
  public:
    CoolingStage(const cluster::Datacenter &dc,
                 const sched::CoolingOptimizer &optimizer)
        : dc_(dc), optimizer_(optimizer)
    {
    }

    const char *name() const override { return "cooling"; }
    void apply(const ControlContext &ctx,
               sched::ScheduleDecision &decision) override;

  private:
    const cluster::Datacenter &dc_;
    const sched::CoolingOptimizer &optimizer_;
};

/**
 * Builds the pipeline a policy resolves to under one system
 * configuration. Owned by H2PSystem next to the components the
 * stages borrow (datacenter, optimizer), which must outlive every
 * pipeline built here.
 */
class PipelineFactory
{
  public:
    PipelineFactory(const cluster::Datacenter &dc,
                    const sched::CoolingOptimizer &optimizer,
                    const BalancerParams &balancer, double t_safe_c)
        : dc_(dc), optimizer_(optimizer), balancer_(balancer),
          t_safe_c_(t_safe_c)
    {
    }

    /**
     * A fresh pipeline for @p policy:
     *   TegOriginal                -> "TEG_Original"    [cooling]
     *   TegLoadBalance             -> "TEG_LoadBalance" [balance, cooling]
     *   TegLoadBalance + [balancer] enabled
     *                              -> "TEG_Balancer"
     *                                 [thermal_balancer, cooling]
     */
    std::unique_ptr<ControlPipeline> make(sched::Policy policy) const;

  private:
    const cluster::Datacenter &dc_;
    const sched::CoolingOptimizer &optimizer_;
    BalancerParams balancer_;
    double t_safe_c_;
};

} // namespace control
} // namespace h2p

#endif // H2P_CONTROL_STAGES_H_
