#include "tests/support/scheduler_oracle.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"

namespace h2p {
namespace oracle {

using sched::Policy;
using sched::SafeModeAction;

Scheduler::Scheduler(const cluster::Datacenter &dc,
                     const sched::CoolingOptimizer &optimizer,
                     Policy policy)
    : dc_(dc), optimizer_(optimizer), policy_(policy)
{
}

void
Scheduler::decideInto(const std::vector<double> &utils,
                      const std::vector<SafeModeAction> &actions,
                      sched::ScheduleDecision &out) const
{
    expect(utils.size() == dc_.numServers(), "expected ",
           dc_.numServers(), " utilizations, got ", utils.size());
    expect(actions.empty() || actions.size() == dc_.numCirculations(),
           "expected ", dc_.numCirculations(), " actions, got ",
           actions.size());

    out.utils = utils;
    out.settings.clear();
    out.settings.reserve(dc_.numCirculations());

    size_t offset = 0;
    for (size_t i = 0; i < dc_.numCirculations(); ++i) {
        const size_t n = dc_.circulationSize(i);
        const double *group = utils.data() + offset;

        double plan_util;
        if (policy_ == Policy::TegLoadBalance) {
            // Balancing happens within a circulation: jobs migrate
            // between its servers, flattening the thermal demand.
            double mean =
                std::accumulate(group, group + n, 0.0) /
                static_cast<double>(n);
            plan_util = mean;
            for (size_t j = 0; j < n; ++j)
                out.utils[offset + j] = mean;
        } else {
            plan_util = *std::max_element(group, group + n);
        }

        SafeModeAction action =
            actions.empty() ? SafeModeAction::Normal : actions[i];
        out.settings.push_back(optimizer_.choose(plan_util, action).setting);
        offset += n;
    }
}

} // namespace oracle
} // namespace h2p
