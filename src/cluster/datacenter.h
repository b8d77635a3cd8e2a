/**
 * @file
 * The datacenter model: all servers, partitioned into circulations.
 *
 * Sec. V-A considers a homogeneous 1,000-server cluster split into
 * 1000/n circulations of n servers; each circulation has its own CDU
 * setting (inlet temperature, flow) while the facility plant serves
 * them all. The datacenter evaluates one scheduling interval given the
 * per-server utilizations and the per-circulation cooling settings.
 */

#ifndef H2P_CLUSTER_DATACENTER_H_
#define H2P_CLUSTER_DATACENTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/circulation.h"
#include "cluster/server_block.h"
#include "hydraulic/plant.h"
#include "hydraulic/pump.h"

namespace h2p {
namespace cluster {

/** Datacenter configuration. */
struct DatacenterParams
{
    /** Total number of servers. */
    size_t num_servers = 1000;
    /** Servers per water circulation. */
    size_t servers_per_circulation = 50;
    /** Natural-water cold-loop temperature for the TEGs, C. */
    double cold_source_c = 20.0;
    ServerParams server;
    hydraulic::PumpParams pump;
    hydraulic::PlantParams plant;
};

/**
 * Degradation of the whole datacenter (fault model). A default
 * constructed health is a fully healthy plant and cluster.
 */
struct DatacenterHealth
{
    /** Per-circulation health; empty means every loop is healthy. */
    std::vector<CirculationHealth> circulations;
    /** Facility plant availability. */
    hydraulic::PlantHealth plant;

    bool clean() const
    {
        if (!plant.clean())
            return false;
        for (const CirculationHealth &c : circulations)
            if (!c.clean())
                return false;
        return true;
    }
};

/** Aggregate state of the datacenter for one interval. */
struct DatacenterState
{
    /** Per-circulation states. */
    std::vector<CirculationState> circulations;
    /**
     * Per-server states of the whole fleet, laid out circulation by
     * circulation like the utilizations; circulation i owns
     * [circulations[i].offset, + circulations[i].count).
     */
    ServerStateBlock servers;
    /** Total CPU power, W. */
    double cpu_power_w = 0.0;
    /** Total TEG output, W. */
    double teg_power_w = 0.0;
    /** Total heat into the loops, W. */
    double heat_w = 0.0;
    /** Total pump power, W. */
    double pump_power_w = 0.0;
    /** Facility plant power (chiller + tower fans), W. */
    double plant_power_w = 0.0;
    /** Servers currently affected by a hardware fault. */
    size_t faulted_servers = 0;
    /** Harvest lost to TEG faults, W. */
    double teg_power_lost_w = 0.0;
    /** Plant forced off its requested supply temperature? */
    bool plant_degraded = false;
    /** All dies safe this interval? */
    bool all_safe = true;

    /** Mean TEG output per server, W (the paper's headline metric). */
    double tegPowerPerServer(size_t num_servers) const
    {
        if (num_servers == 0)
            return 0.0;
        return teg_power_w / static_cast<double>(num_servers);
    }
};

/**
 * A homogeneous warm-water-cooled datacenter with TEG harvesting.
 */
class Datacenter
{
  public:
    Datacenter() : Datacenter(DatacenterParams{}) {}

    explicit Datacenter(const DatacenterParams &params);

    /** Number of circulations (ceil of servers / per-circulation). */
    size_t numCirculations() const { return circulation_sizes_.size(); }

    /** Number of servers in circulation @p i. */
    size_t circulationSize(size_t i) const;

    /** Total number of servers. */
    size_t numServers() const { return params_.num_servers; }

    /**
     * Evaluate one scheduling interval into caller-owned storage:
     * @p out (its circulations vector and the fleet-wide servers
     * block) is reused across calls, so the step allocates nothing.
     *
     * @param utils Per-server utilizations (numServers() entries),
     *        laid out circulation by circulation.
     * @param settings Per-circulation cooling settings
     *        (numCirculations() entries).
     *
     * @p health may be null for a healthy cluster. Under faults, plant
     * outages warm the delivered supply temperature of every
     * circulation, degraded pumps starve their loop (a dead pump
     * leaves a stagnant trickle, kStagnantFlowLph, so the steady-state
     * thermal model stays finite — the dies then run far beyond the
     * vendor maximum), and per-server faults flow through; a clean
     * @p health reproduces the healthy evaluation exactly.
     * Circulations are evaluated in order and the totals reduced in
     * circulation order. Consecutive circulations at a bitwise-equal
     * thermal flow share one coefficient hoist.
     */
    void evaluateInto(const std::vector<double> &utils,
                      const std::vector<CoolingSetting> &settings,
                      const DatacenterHealth *health,
                      DatacenterState &out) const;

    /** Residual natural-circulation flow of a dead pump, L/H. */
    static constexpr double kStagnantFlowLph = 2.0;

    const DatacenterParams &params() const { return params_; }

  private:
    /**
     * Evaluate circulation @p i at @p setting into its segment of
     * out.servers and into out.circulations[i]. @p health null (or
     * clean) is the healthy evaluation. @p coeffs carries the last
     * hoist, redone only when this loop's thermal flow differs.
     * Returns whether the loop's health was clean.
     */
    bool evaluateCirculation(size_t i, const double *utils,
                             const CoolingSetting &setting,
                             const CirculationHealth *health,
                             ServerBlock::Coeffs &coeffs,
                             DatacenterState &out) const;

    DatacenterParams params_;
    std::vector<size_t> circulation_sizes_;
    std::vector<size_t> circulation_offsets_;
    // One kernel and one pump model serve every circulation: servers
    // and pumps are homogeneous, and a short last loop is just a
    // shorter segment.
    ServerBlock block_;
    hydraulic::Pump pump_;
    hydraulic::FacilityPlant plant_;
};

} // namespace cluster
} // namespace h2p

#endif // H2P_CLUSTER_DATACENTER_H_
