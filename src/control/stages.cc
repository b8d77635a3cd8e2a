#include "control/stages.h"

#include <algorithm>
#include <numeric>

#include "sched/consolidation.h"
#include "util/error.h"

namespace h2p {
namespace control {

void
BalanceStage::apply(const ControlContext &ctx,
                    sched::ScheduleDecision &decision)
{
    (void)ctx;
    // Identical arithmetic to the former hard-wired scheduler's
    // TegLoadBalance branch: one accumulate per circulation slice,
    // every server set to the mean. Balancing happens within a
    // circulation — jobs migrate between its servers, flattening the
    // thermal demand.
    size_t offset = 0;
    for (size_t i = 0; i < dc_.numCirculations(); ++i) {
        const size_t n = dc_.circulationSize(i);
        double *group = decision.utils.data() + offset;
        double mean = std::accumulate(group, group + n, 0.0) /
                      static_cast<double>(n);
        for (size_t j = 0; j < n; ++j)
            group[j] = mean;
        offset += n;
    }
}

void
CoolingStage::apply(const ControlContext &ctx,
                    sched::ScheduleDecision &decision)
{
    expect(decision.utils.size() == dc_.numServers(),
           "cooling stage expects ", dc_.numServers(),
           " utilizations, got ", decision.utils.size());
    expect(ctx.actions == nullptr ||
               ctx.actions->size() == dc_.numCirculations(),
           "expected ", dc_.numCirculations(), " safe-mode actions, "
           "got ", ctx.actions == nullptr ? 0 : ctx.actions->size());

    decision.settings.clear();
    decision.settings.reserve(dc_.numCirculations());

    size_t offset = 0;
    for (size_t i = 0; i < dc_.numCirculations(); ++i) {
        const size_t n = dc_.circulationSize(i);
        const sched::SafeModeAction action =
            ctx.actions == nullptr ? sched::SafeModeAction::Normal
                                   : (*ctx.actions)[i];
        decision.settings.push_back(
            optimizer_.choose(planUtil(decision.utils, offset, n), action)
                .setting);
        offset += n;
    }
}

double
CoolingStage::planUtil(const std::vector<double> &utils, size_t offset,
                       size_t n) const
{
    // After a balancing stage flattened the slice this max IS the
    // slice's mean, bit for bit; without one it is the paper's U_max
    // planning statistic.
    const double *group = utils.data() + offset;
    return *std::max_element(group, group + n);
}

double
PredictiveCoolingStage::planUtil(const std::vector<double> &utils,
                                 size_t offset, size_t n) const
{
    (void)utils;
    return predictor_.maxUpperBound(offset, offset + n);
}

void
PredictiveCoolingStage::observe(const ControlContext &ctx,
                                const cluster::DatacenterState &state)
{
    (void)state;
    predictor_.observe(*ctx.utils);
}

void
PlacementStage::apply(const ControlContext &ctx,
                      sched::ScheduleDecision &decision)
{
    (void)ctx;
    decision.utils = place_(decision.utils, dc_.circulationSize(0));
}

void
ConsolidationStage::apply(const ControlContext &ctx,
                          sched::ScheduleDecision &decision)
{
    (void)ctx;
    size_t offset = 0;
    for (size_t i = 0; i < dc_.numCirculations(); ++i) {
        const size_t n = dc_.circulationSize(i);
        auto first = decision.utils.begin() + offset;
        std::vector<double> packed =
            sched::consolidate(std::vector<double>(first, first + n),
                               cap_);
        std::copy(packed.begin(), packed.end(), first);
        offset += n;
    }
}

std::unique_ptr<ControlPipeline>
PipelineFactory::make(sched::Policy policy) const
{
    if (policy == sched::Policy::TegLoadBalance &&
        balancer_.enabled) {
        auto p = std::make_unique<ControlPipeline>("TEG_Balancer");
        p->add(std::make_unique<ThermalBalancer>(balancer_, dc_,
                                                 t_safe_c_));
        p->add(std::make_unique<CoolingStage>(dc_, optimizer_));
        return p;
    }
    if (policy == sched::Policy::TegLoadBalance) {
        auto p = std::make_unique<ControlPipeline>("TEG_LoadBalance");
        p->add(std::make_unique<BalanceStage>(dc_));
        p->add(std::make_unique<CoolingStage>(dc_, optimizer_));
        return p;
    }
    auto p = std::make_unique<ControlPipeline>("TEG_Original");
    p->add(std::make_unique<CoolingStage>(dc_, optimizer_));
    return p;
}

} // namespace control
} // namespace h2p
