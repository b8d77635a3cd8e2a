/**
 * @file
 * Test helpers: aggregates of a utilization vector that only tests
 * read — its mean, and the per-circulation maxima of a placement.
 */

#ifndef H2P_TESTS_SUPPORT_AGGREGATES_H_
#define H2P_TESTS_SUPPORT_AGGREGATES_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/error.h"

namespace h2p {
namespace test {

/** Mean of @p utils (e.g. a trace step), summed in index order. */
inline double
mean(const std::vector<double> &utils)
{
    expect(!utils.empty(), "empty utilization set");
    double sum = 0.0;
    for (double u : utils)
        sum += u;
    return sum / static_cast<double>(utils.size());
}

/**
 * Maximum of each consecutive group of @p group_size utilizations (the
 * last group may be short): one per circulation of a layout.
 */
inline std::vector<double>
groupMaxima(const std::vector<double> &utils, size_t group_size)
{
    expect(!utils.empty(), "empty utilization set");
    expect(group_size >= 1, "group size must be at least 1");
    std::vector<double> maxima;
    for (size_t off = 0; off < utils.size(); off += group_size) {
        const size_t end = std::min(off + group_size, utils.size());
        maxima.push_back(
            *std::max_element(utils.begin() + off, utils.begin() + end));
    }
    return maxima;
}

/**
 * Largest per-circulation maximum under a layout — the number that
 * caps the coolest achievable inlet of the worst loop.
 */
inline double
worstGroupMax(const std::vector<double> &utils, size_t group_size)
{
    const std::vector<double> maxima = groupMaxima(utils, group_size);
    return *std::max_element(maxima.begin(), maxima.end());
}

/** Mean over circulations of the per-circulation maximum. */
inline double
meanGroupMax(const std::vector<double> &utils, size_t group_size)
{
    return mean(groupMaxima(utils, group_size));
}

} // namespace test
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_AGGREGATES_H_
