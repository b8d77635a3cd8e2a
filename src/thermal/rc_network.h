/**
 * @file
 * Generic transient thermal-RC network.
 *
 * The Fig. 3 experiment ("TEG can hardly conduct heat") is a transient
 * one: CPU0's die, separated from its cold plate by a TEG, integrates
 * heat over minutes while CPU1 tracks the coolant. This module
 * provides a small lumped-parameter network — capacitive nodes,
 * fixed-temperature boundary nodes, resistive edges, per-node power
 * injections — integrated explicitly with sub-stepping for stability.
 */

#ifndef H2P_THERMAL_RC_NETWORK_H_
#define H2P_THERMAL_RC_NETWORK_H_

#include <cstddef>
#include <string>
#include <vector>

namespace h2p {
namespace thermal {

/** Opaque handle to a node of an RcNetwork. */
struct NodeId
{
    size_t index = static_cast<size_t>(-1);
};

/**
 * Lumped thermal network with explicit time integration.
 */
class RcNetwork
{
  public:
    RcNetwork() = default;

    /**
     * Add a capacitive node.
     *
     * @param name Diagnostic label.
     * @param capacitance_jpk Thermal capacitance, J/K (> 0).
     * @param initial_c Initial temperature, Celsius.
     */
    NodeId addNode(const std::string &name, double capacitance_jpk,
                   double initial_c);

    /**
     * Add a boundary node pinned at @p temp_c (e.g. a coolant stream
     * whose temperature is externally controlled).
     */
    NodeId addBoundary(const std::string &name, double temp_c);

    /**
     * Connect two nodes with thermal resistance @p resistance_kpw.
     * @return Edge index usable with setEdgeResistance (e.g. for
     *         flow-dependent plate resistances).
     */
    size_t connect(NodeId a, NodeId b, double resistance_kpw);

    /** Re-set the resistance of edge @p edge (from connect). */
    void setEdgeResistance(size_t edge, double resistance_kpw);

    /** Set the heat injected into node @p n, W (e.g. CPU power). */
    void setPower(NodeId n, double watts);

    /** Re-pin a boundary node to a new temperature. */
    void setBoundary(NodeId n, double temp_c);

    /** Current temperature of node @p n, Celsius. */
    double temperature(NodeId n) const;

    /** Diagnostic name of node @p n. */
    const std::string &name(NodeId n) const;

    /**
     * Advance the network by @p seconds. Internally sub-steps at a
     * stability-bounded step (<= half the smallest RC time constant).
     */
    void step(double seconds);

  private:
    struct Node
    {
        std::string name;
        double capacitance = 0.0; // J/K; 0 marks a boundary node
        double temp = 0.0;        // Celsius
        double power = 0.0;       // W injected
        bool boundary = false;
    };

    struct Edge
    {
        size_t a = 0;
        size_t b = 0;
        double conductance = 0.0; // W/K
    };

    void checkNode(NodeId n) const;
    double maxStableStep() const;

    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
};

} // namespace thermal
} // namespace h2p

#endif // H2P_THERMAL_RC_NETWORK_H_
