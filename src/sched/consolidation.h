/**
 * @file
 * Workload consolidation — the strategy H2P's balancing competes
 * with.
 *
 * Cluster managers usually *consolidate*: pack the work onto as few
 * servers as possible (each up to a utilization cap) and idle the
 * rest, because the CPU power curve (Eq. 20) is concave — spreading
 * the same work across more servers burns more total power. H2P
 * instead *balances*, because the circulation's inlet temperature is
 * dictated by its hottest server. control::ConsolidationStage wraps
 * consolidate() per circulation.
 */

#ifndef H2P_SCHED_CONSOLIDATION_H_
#define H2P_SCHED_CONSOLIDATION_H_

#include <vector>

namespace h2p {
namespace sched {

/**
 * Pack the total work of @p utils onto the fewest servers, each
 * loaded up to @p cap (the last donor keeps the remainder). Total
 * work is preserved; order of servers is kept (the first servers
 * receive the load).
 *
 * @param utils Per-server utilizations in [0, 1].
 * @param cap Per-server utilization ceiling in (0, 1].
 */
std::vector<double> consolidate(const std::vector<double> &utils,
                                double cap);

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_CONSOLIDATION_H_
