/**
 * @file
 * Inter-circulation job placement.
 *
 * Sec. V-B balances load *within* a circulation; which servers (and
 * hence which circulation) a job lands on in the first place is a
 * second, orthogonal knob. Because every circulation's inlet
 * temperature is capped by its own hottest server, the placement
 * question is whether to spread the hot jobs (every loop pays a
 * little) or to cluster them (one loop pays a lot, the rest run
 * warm) — the same tension as Skach et al.'s "locate hot jobs
 * together" (Sec. VII). Strategies provided:
 *
 *  - snake: sort by utilization and deal out boustrophedon, which
 *    equalizes both the sum and the maximum across loops;
 *  - hotCluster: sort and fill loop after loop, concentrating the
 *    hot jobs into as few circulations as possible.
 *
 * control::PlacementStage wraps both.
 */

#ifndef H2P_SCHED_PLACEMENT_H_
#define H2P_SCHED_PLACEMENT_H_

#include <cstddef>
#include <vector>

namespace h2p {
namespace sched {

/**
 * Reorder @p utils so that consecutive blocks of @p group_size
 * servers (the circulations) receive utilizations dealt out in
 * snake (boustrophedon) order of decreasing utilization. The
 * multiset of utilizations is preserved.
 */
std::vector<double> placeSnake(const std::vector<double> &utils,
                               size_t group_size);

/**
 * Reorder @p utils so hot jobs are packed together: sorted
 * descending, filling circulation 0 first. Preserves the multiset.
 */
std::vector<double> placeHotCluster(const std::vector<double> &utils,
                                    size_t group_size);

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_PLACEMENT_H_
