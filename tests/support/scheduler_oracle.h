/**
 * @file
 * Test-only reference for the built-in control pipelines: the
 * hard-wired per-interval scheduler the control plane replaced.
 *
 * The library runs every decision through control::ControlPipeline
 * (control::PipelineFactory builds the per-policy stages). This
 * oracle keeps the original single-function arithmetic — balance
 * within each circulation (TEG_LoadBalance), then run the cooling
 * optimizer per circulation under its safe-mode action — so tests and
 * the ablation_balancer smoke gate can prove the pipelines reproduce
 * it bit for bit.
 */

#ifndef H2P_TESTS_SUPPORT_SCHEDULER_ORACLE_H_
#define H2P_TESTS_SUPPORT_SCHEDULER_ORACLE_H_

#include <vector>

#include "cluster/datacenter.h"
#include "sched/cooling_optimizer.h"
#include "sched/policy.h"

namespace h2p {
namespace oracle {

/** The reference decision for one policy. */
class Scheduler
{
  public:
    /**
     * @param dc Datacenter layout (not owned).
     * @param optimizer Cooling optimizer (not owned).
     * @param policy Scheme to apply.
     */
    Scheduler(const cluster::Datacenter &dc,
              const sched::CoolingOptimizer &optimizer,
              sched::Policy policy);

    /**
     * Decide one interval into @p out. @p actions is empty (all
     * Normal) or holds one safe-mode action per circulation, which
     * the optimizer plans under (CoolingOptimizer::choose).
     */
    void decideInto(const std::vector<double> &utils,
                    const std::vector<sched::SafeModeAction> &actions,
                    sched::ScheduleDecision &out) const;

  private:
    const cluster::Datacenter &dc_;
    const sched::CoolingOptimizer &optimizer_;
    sched::Policy policy_;
};

} // namespace oracle
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_SCHEDULER_ORACLE_H_
