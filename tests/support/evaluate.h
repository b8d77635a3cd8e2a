/**
 * @file
 * Test helper: evaluate one circulation into a fresh state through
 * Circulation::evaluateInto, so a check can be written as one
 * expression.
 */

#ifndef H2P_TESTS_SUPPORT_EVALUATE_H_
#define H2P_TESTS_SUPPORT_EVALUATE_H_

#include <vector>

#include "cluster/circulation.h"

namespace h2p {
namespace test {

/** @p circ evaluated over @p utils; @p health null means healthy. */
inline cluster::CirculationState
evaluate(const cluster::Circulation &circ, const std::vector<double> &utils,
         const cluster::CoolingSetting &setting, double t_cold_c,
         const cluster::CirculationHealth *health = nullptr)
{
    cluster::CirculationState state;
    circ.evaluateInto(utils.data(), utils.size(), setting, t_cold_c,
                      health, state);
    return state;
}

} // namespace test
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_EVALUATE_H_
