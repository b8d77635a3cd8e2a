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
 * Three more stages wrap the sched helpers the ablations price:
 * PlacementStage (inter-circulation job placement),
 * ConsolidationStage (pack each circulation's work under a cap) and
 * PredictiveCoolingStage (causal planning on an EWMA upper bound in
 * place of the interval's own U_max).
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
#include "sched/predictor.h"

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

  protected:
    /**
     * The planning utilization of the circulation whose @p n servers
     * start at @p offset in the decision's @p utils.
     */
    virtual double planUtil(const std::vector<double> &utils,
                            size_t offset, size_t n) const;

  private:
    const cluster::Datacenter &dc_;
    const sched::CoolingOptimizer &optimizer_;
};

/**
 * Causal cooling: plan each circulation on the largest EWMA upper
 * bound of its servers (sched::EwmaPredictor) instead of the
 * interval's own, still unseen, utilizations, which pass through
 * unchanged. observe() folds each interval's utilizations into the
 * predictor, whose state is checkpointed. alpha = 1, kappa = 0 plans
 * on the previous interval's utilizations (stale planning).
 */
class PredictiveCoolingStage : public CoolingStage
{
  public:
    PredictiveCoolingStage(const cluster::Datacenter &dc,
                           const sched::CoolingOptimizer &optimizer,
                           const sched::PredictorParams &params = {})
        : CoolingStage(dc, optimizer),
          predictor_(dc.numServers(), params)
    {
    }

    const char *name() const override { return "predictive_cooling"; }
    void observe(const ControlContext &ctx,
                 const cluster::DatacenterState &state) override;
    bool stateful() const override { return true; }
    void visitState(util::Archive &ar) override { predictor_.visit(ar); }

  protected:
    double planUtil(const std::vector<double> &utils, size_t offset,
                    size_t n) const override;

  private:
    sched::EwmaPredictor predictor_;
};

/**
 * Reorder the fleet's utilizations across circulations with a sched
 * placement helper (sched::placeSnake, sched::placeHotCluster), the
 * first circulation's size being the group. Stateless.
 */
class PlacementStage : public ControlStage
{
  public:
    using Place = std::vector<double> (*)(const std::vector<double> &,
                                          size_t group_size);

    PlacementStage(const cluster::Datacenter &dc, Place place)
        : dc_(dc), place_(place)
    {
    }

    const char *name() const override { return "placement"; }
    void apply(const ControlContext &ctx,
               sched::ScheduleDecision &decision) override;

  private:
    const cluster::Datacenter &dc_;
    Place place_;
};

/**
 * Pack each circulation's work onto its first servers, each loaded up
 * to @p cap (sched::consolidate per slice). Stateless.
 */
class ConsolidationStage : public ControlStage
{
  public:
    ConsolidationStage(const cluster::Datacenter &dc, double cap)
        : dc_(dc), cap_(cap)
    {
    }

    const char *name() const override { return "consolidation"; }
    void apply(const ControlContext &ctx,
               sched::ScheduleDecision &decision) override;

  private:
    const cluster::Datacenter &dc_;
    double cap_;
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
