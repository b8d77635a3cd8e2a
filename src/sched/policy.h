/**
 * @file
 * The paper's two evaluation schemes (TEG_Original / TEG_LoadBalance,
 * Sec. V-C) and the per-interval decision a control pipeline
 * produces for them.
 */

#ifndef H2P_SCHED_POLICY_H_
#define H2P_SCHED_POLICY_H_

#include <string>
#include <vector>

#include "cluster/datacenter.h"

namespace h2p {
namespace sched {

/** The two evaluation schemes of the paper. */
enum class Policy {
    /** Adjust the cooling setting only (plan on U_max). */
    TegOriginal,
    /** Balance the workload, then adjust cooling (plan on U_avg). */
    TegLoadBalance,
};

/** Human-readable policy name. */
inline std::string
toString(Policy policy)
{
    return policy == Policy::TegLoadBalance ? "TEG_LoadBalance"
                                            : "TEG_Original";
}

/** The scheduling decision for one interval. */
struct ScheduleDecision
{
    /** Possibly rebalanced per-server utilizations. */
    std::vector<double> utils;
    /** Cooling setting per circulation. */
    std::vector<cluster::CoolingSetting> settings;
};

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_POLICY_H_
