#include "sched/placement.h"

#include <algorithm>

#include "util/error.h"

namespace h2p {
namespace sched {
namespace {

void
checkArgs(const std::vector<double> &utils, size_t group_size)
{
    expect(!utils.empty(), "empty utilization set");
    expect(group_size >= 1, "group size must be at least 1");
}

} // namespace

std::vector<double>
placeSnake(const std::vector<double> &utils, size_t group_size)
{
    checkArgs(utils, group_size);
    std::vector<double> sorted = utils;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());

    size_t groups = (utils.size() + group_size - 1) / group_size;
    std::vector<double> out(utils.size());
    std::vector<size_t> fill(groups, 0);
    size_t g = 0;
    int dir = 1;
    for (double u : sorted) {
        // Find the next group with room, snaking back and forth.
        while (fill[g] >= group_size ||
               g * group_size + fill[g] >= utils.size()) {
            if ((dir > 0 && g + 1 >= groups) || (dir < 0 && g == 0))
                dir = -dir;
            else
                g += dir;
        }
        out[g * group_size + fill[g]] = u;
        ++fill[g];
        if ((dir > 0 && g + 1 >= groups) || (dir < 0 && g == 0))
            dir = -dir;
        else
            g += dir;
    }
    return out;
}

std::vector<double>
placeHotCluster(const std::vector<double> &utils, size_t group_size)
{
    checkArgs(utils, group_size);
    std::vector<double> out = utils;
    std::sort(out.begin(), out.end(), std::greater<double>());
    return out;
}

} // namespace sched
} // namespace h2p
