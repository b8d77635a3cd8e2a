/**
 * @file
 * Test helper: one circulation evaluated through a one-loop
 * Datacenter, so a check on a single loop can be written as one
 * expression.
 */

#ifndef H2P_TESTS_SUPPORT_EVALUATE_H_
#define H2P_TESTS_SUPPORT_EVALUATE_H_

#include <utility>
#include <vector>

#include "cluster/datacenter.h"

namespace h2p {
namespace test {

/** A datacenter of one @p n-server circulation (default models). */
inline cluster::Datacenter
oneLoop(size_t n, double t_cold_c = 20.0)
{
    cluster::DatacenterParams p;
    p.num_servers = n;
    p.servers_per_circulation = n;
    p.cold_source_c = t_cold_c;
    return cluster::Datacenter(p);
}

/** The loop's aggregate state plus its servers (the whole block). */
struct LoopState : cluster::CirculationState
{
    cluster::ServerStateBlock servers;
};

/**
 * The one loop of @p dc evaluated over @p utils at @p setting;
 * @p health null means healthy.
 */
inline LoopState
evaluate(const cluster::Datacenter &dc, const std::vector<double> &utils,
         const cluster::CoolingSetting &setting,
         const cluster::CirculationHealth *health = nullptr)
{
    cluster::DatacenterHealth dc_health;
    if (health != nullptr)
        dc_health.circulations.push_back(*health);
    cluster::DatacenterState state;
    dc.evaluateInto(utils, {setting},
                    health != nullptr ? &dc_health : nullptr, state);
    LoopState loop;
    static_cast<cluster::CirculationState &>(loop) = state.circulations[0];
    loop.servers = std::move(state.servers);
    return loop;
}

} // namespace test
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_EVALUATE_H_
