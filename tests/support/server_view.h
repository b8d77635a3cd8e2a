/**
 * @file
 * Test helpers: one server of the fleet-wide structure-of-arrays
 * blocks (ServerStateBlock, CirculationHealth's string lanes) as the
 * whole-server structs the scalar reference chain speaks.
 */

#ifndef H2P_TESTS_SUPPORT_SERVER_VIEW_H_
#define H2P_TESTS_SUPPORT_SERVER_VIEW_H_

#include <cstddef>

#include "cluster/circulation.h"
#include "cluster/server.h"
#include "cluster/server_block.h"
#include "util/error.h"

namespace h2p {
namespace test {

/** Server @p i of @p block; throws when @p i is out of range. */
inline cluster::ServerState
serverAt(const cluster::ServerStateBlock &block, size_t i)
{
    expect(i < block.size(), "server ", i, " out of range (block has ",
           block.size(), ")");
    cluster::ServerState s;
    s.util = block.util[i];
    s.cpu_power_w = block.cpu_power_w[i];
    s.die_temp_c = block.die_temp_c[i];
    s.outlet_c = block.outlet_c[i];
    s.heat_w = block.heat_w[i];
    s.teg_power_w = block.teg_power_w[i];
    s.teg_power_lost_w = block.teg_power_lost_w[i];
    s.faulted = block.faulted[i] != 0;
    s.safe = block.safe[i] != 0;
    return s;
}

/**
 * Server @p i of @p health as one ServerHealth: its string lanes (when
 * materialized) and the loop's fouling.
 */
inline cluster::ServerHealth
serverHealth(const cluster::CirculationHealth &health, size_t i)
{
    cluster::ServerHealth h;
    if (health.hasServerLanes()) {
        expect(i < health.numServers(), "server ", i,
               " out of range (lanes cover ", health.numServers(), ")");
        h.teg_open = health.teg_open[i] != 0;
        h.tegs_shorted = health.tegs_shorted[i];
    }
    h.fouling_kpw = health.fouling_kpw;
    return h;
}

/**
 * Scatter @p h's string faults into server @p i's lanes of @p health
 * (materialized). Fouling is one value per loop, so @p h must carry
 * the loop's.
 */
inline void
setServerHealth(cluster::CirculationHealth &health, size_t i,
                const cluster::ServerHealth &h)
{
    expect(i < health.numServers(), "server ", i,
           " out of range (lanes cover ", health.numServers(), ")");
    expect(h.fouling_kpw == health.fouling_kpw,
           "fouling is one value per loop");
    health.teg_open[i] = h.teg_open ? 1 : 0;
    health.tegs_shorted[i] = h.tegs_shorted;
}

} // namespace test
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_SERVER_VIEW_H_
