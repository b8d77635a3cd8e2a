/**
 * @file
 * The setting, health and state of one water circulation.
 *
 * Within a circulation every server sees the same inlet temperature
 * and flow rate (Sec. V-A); the cooling setting is therefore dictated
 * by the hottest (or, after balancing, the average) server. Each
 * circulation has its own pump and reports the mixed return stream
 * the CDU must absorb. Datacenter evaluates every circulation.
 */

#ifndef H2P_CLUSTER_CIRCULATION_H_
#define H2P_CLUSTER_CIRCULATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/server.h"
#include "cluster/server_block.h"

namespace h2p {
namespace cluster {

/** The per-interval cooling knobs of one circulation (Sec. V-B). */
struct CoolingSetting
{
    /** Supply (inlet) water temperature, C. */
    double t_in_c = 40.0;
    /** Per-branch flow rate, L/H. */
    double flow_lph = 20.0;
};

/**
 * Degradation of one circulation (fault model). A default-constructed
 * health is a clean loop.
 *
 * Each fault is stored at the scope it acts on: the pump and the
 * cold-plate fouling once for the loop, and the TEG string faults as
 * flat per-server lanes, the form the SoA step kernel reads in its
 * closing pass (SegmentHealth). Both string lanes are either empty
 * (no string faulted) or numServers() long.
 */
struct CirculationHealth
{
    /**
     * Fraction of the commanded flow the pump still delivers: 1 =
     * healthy, (0, 1) = degraded (worn impeller, scale), 0 = failed.
     */
    double pump_flow_factor = 1.0;
    /**
     * Cold-plate fouling resistance of every server in the loop, K/W;
     * a value that is not positive is no fouling.
     */
    double fouling_kpw = 0.0;
    /** Per-server: one series TEG went open-circuit (string dead). */
    std::vector<uint8_t> teg_open;
    /** Per-server: short-circuited TEGs dropped from the string. */
    std::vector<size_t> tegs_shorted;

    /** Servers the string lanes cover (0 = no string faulted). */
    size_t numServers() const { return teg_open.size(); }

    /** True when the per-server string lanes are materialized. */
    bool hasServerLanes() const { return !teg_open.empty(); }

    /** Size both string lanes to @p n servers, every string intact. */
    void resizeServers(size_t n)
    {
        teg_open.assign(n, 0);
        tegs_shorted.assign(n, 0);
    }

    /** The view the step kernel consumes. */
    SegmentHealth segment() const
    {
        SegmentHealth s;
        s.fouling_kpw = fouling_kpw;
        if (hasServerLanes()) {
            s.teg_open = teg_open.data();
            s.tegs_shorted = tegs_shorted.data();
        }
        return s;
    }

    bool clean() const
    {
        if (pump_flow_factor < 1.0 || segment().fouled())
            return false;
        for (size_t i = 0; i < teg_open.size(); ++i)
            if (teg_open[i] != 0)
                return false;
        for (size_t i = 0; i < tegs_shorted.size(); ++i)
            if (tegs_shorted[i] != 0)
                return false;
        return true;
    }
};

/** Aggregate state of one circulation for one interval. */
struct CirculationState
{
    CoolingSetting setting;
    /** First server of this loop's segment of DatacenterState::servers. */
    size_t offset = 0;
    /** Servers in the loop (the segment's length). */
    size_t count = 0;
    /** Total CPU power, W. */
    double cpu_power_w = 0.0;
    /** Total TEG output, W. */
    double teg_power_w = 0.0;
    /** Total heat into the loop, W. */
    double heat_w = 0.0;
    /** Mixed return temperature, C. */
    double return_c = 0.0;
    /** Pump electrical power, W. */
    double pump_power_w = 0.0;
    /** Hottest die temperature, C. */
    double max_die_c = 0.0;
    /** Per-branch flow the pump actually delivered, L/H. */
    double delivered_flow_lph = 0.0;
    /** Servers evaluated under a non-clean health. */
    size_t faulted_servers = 0;
    /** Harvest lost to TEG faults, W. */
    double teg_power_lost_w = 0.0;
    /** All dies at or below the vendor maximum? */
    bool all_safe = true;
};

} // namespace cluster
} // namespace h2p

#endif // H2P_CLUSTER_CIRCULATION_H_
