/**
 * @file
 * A group of servers sharing one water circulation.
 *
 * Within a circulation every server sees the same inlet temperature
 * and flow rate (Sec. V-A); the cooling setting is therefore dictated
 * by the hottest (or, after balancing, the average) server. The
 * circulation owns a pump and reports the mixed return stream the CDU
 * must absorb.
 */

#ifndef H2P_CLUSTER_CIRCULATION_H_
#define H2P_CLUSTER_CIRCULATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/server.h"
#include "cluster/server_block.h"
#include "hydraulic/pump.h"

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
 * Per-server faults are stored as flat arrays — one lane per fault
 * dimension — which is exactly the form the SoA step kernel consumes
 * (ServerHealthLanes). All three arrays are either empty (every
 * server healthy) or numServers() long; the AoS server()/setServer()
 * accessors materialize a ServerHealth view for callers that think in
 * whole servers.
 */
struct CirculationHealth
{
    /**
     * Fraction of the commanded flow the pump still delivers: 1 =
     * healthy, (0, 1) = degraded (worn impeller, scale), 0 = failed.
     */
    double pump_flow_factor = 1.0;
    /** Per-server: one series TEG went open-circuit (string dead). */
    std::vector<uint8_t> teg_open;
    /** Per-server: short-circuited TEGs dropped from the string. */
    std::vector<size_t> tegs_shorted;
    /** Per-server: cold-plate fouling resistance, K/W. */
    std::vector<double> fouling_kpw;

    /** Servers the fault arrays cover (0 = all healthy). */
    size_t numServers() const { return fouling_kpw.size(); }

    /** True when the per-server fault arrays are materialized. */
    bool hasServerLanes() const { return !fouling_kpw.empty(); }

    /** Size (or clear to healthy, for n = current) all fault lanes. */
    void resizeServers(size_t n)
    {
        teg_open.assign(n, 0);
        tegs_shorted.assign(n, 0);
        fouling_kpw.assign(n, 0.0);
    }

    /** Fill every lane with @p h (e.g. fleet-wide fouling). */
    void assignServers(size_t n, const ServerHealth &h)
    {
        teg_open.assign(n, h.teg_open ? 1 : 0);
        tegs_shorted.assign(n, h.tegs_shorted);
        fouling_kpw.assign(n, h.fouling_kpw);
    }

    /** Materialize the AoS health of server @p i. */
    ServerHealth server(size_t i) const
    {
        ServerHealth h;
        h.teg_open = teg_open[i] != 0;
        h.tegs_shorted = tegs_shorted[i];
        h.fouling_kpw = fouling_kpw[i];
        return h;
    }

    /** Scatter @p h into server @p i's lanes. */
    void setServer(size_t i, const ServerHealth &h)
    {
        teg_open[i] = h.teg_open ? 1 : 0;
        tegs_shorted[i] = h.tegs_shorted;
        fouling_kpw[i] = h.fouling_kpw;
    }

    /** The raw lane view the step kernel consumes. */
    ServerHealthLanes lanes() const
    {
        ServerHealthLanes l;
        if (hasServerLanes()) {
            l.fouling_kpw = fouling_kpw.data();
            l.teg_open = teg_open.data();
            l.tegs_shorted = tegs_shorted.data();
        }
        return l;
    }

    bool clean() const
    {
        if (pump_flow_factor < 1.0)
            return false;
        for (size_t i = 0; i < teg_open.size(); ++i)
            if (teg_open[i] != 0)
                return false;
        for (size_t i = 0; i < tegs_shorted.size(); ++i)
            if (tegs_shorted[i] != 0)
                return false;
        for (size_t i = 0; i < fouling_kpw.size(); ++i)
            if (fouling_kpw[i] > 0.0)
                return false;
        return true;
    }
};

/** Aggregate state of one circulation for one interval. */
struct CirculationState
{
    CoolingSetting setting;
    /**
     * Per-server states in SoA layout (the step kernel writes these
     * arrays directly). AoS consumers materialize through
     * servers.server(i) / servers[i].
     */
    ServerStateBlock servers;
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

/**
 * A water circulation serving @p count identical servers.
 */
class Circulation
{
  public:
    /**
     * @param count Number of servers sharing the loop.
     * @param server_params Per-server configuration.
     * @param pump_params Pump at the loop's rated point.
     */
    explicit Circulation(size_t count,
                         const ServerParams &server_params = {},
                         const hydraulic::PumpParams &pump_params = {});

    /** Number of servers in the loop. */
    size_t size() const { return count_; }

    /**
     * Evaluate the circulation for one interval into caller-owned
     * storage: @p out (including its servers vector) is reused across
     * calls, so a steady-state simulation loop allocates nothing per
     * step.
     *
     * @param utils Per-server utilizations; @p n must equal size().
     * @param setting Cooling setting applied to every branch.
     * @param t_cold_c Natural-water cold-loop temperature, C.
     * @param health Null (or clean) for the healthy evaluation. A
     *        degraded pump delivers only pump_flow_factor of the
     *        commanded flow (a dead pump leaves a stagnant trickle,
     *        kStagnantFlowLph, so the steady-state thermal model stays
     *        finite — the dies then run far beyond the vendor maximum)
     *        and each server sees its own ServerHealth.
     */
    void evaluateInto(const double *utils, size_t n,
                      const CoolingSetting &setting, double t_cold_c,
                      const CirculationHealth *health,
                      CirculationState &out) const;

    /** Residual natural-circulation flow of a dead pump, L/H. */
    static constexpr double kStagnantFlowLph = 2.0;

    const Server &server() const { return server_; }

    /** The SoA step kernel evaluating this loop's servers. */
    const ServerBlock &block() const { return block_; }

  private:
    size_t count_;
    Server server_;
    ServerBlock block_;
    hydraulic::Pump pump_;
};

} // namespace cluster
} // namespace h2p

#endif // H2P_CLUSTER_CIRCULATION_H_
