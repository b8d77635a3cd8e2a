/**
 * @file
 * Per-server CPU-utilization traces.
 *
 * The evaluation (Sec. V-C) drives a 1,000-server cluster with
 * utilization time series sampled every scheduling interval (the paper
 * adjusts the cooling setting every ~5 minutes). A trace is a dense
 * servers x steps matrix of utilizations in [0, 1].
 */

#ifndef H2P_WORKLOAD_TRACE_H_
#define H2P_WORKLOAD_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace h2p {
namespace workload {

/**
 * Dense utilization matrix: rows are scheduling steps, columns are
 * servers. All values are in [0, 1].
 */
class UtilizationTrace
{
  public:
    /**
     * @param num_servers Number of servers (columns).
     * @param dt_s Scheduling interval, seconds.
     */
    UtilizationTrace(size_t num_servers, double dt_s);

    /** Number of servers. */
    size_t numServers() const { return num_servers_; }

    /** Number of recorded steps. */
    size_t numSteps() const { return data_.size(); }

    /** Scheduling interval, seconds. */
    double dt() const { return dt_; }

    /** Trace duration, seconds. */
    double duration() const
    {
        return dt_ * static_cast<double>(numSteps());
    }

    /**
     * Append one step of per-server utilizations; values are validated
     * to lie in [0, 1] and the width must match numServers().
     */
    void addStep(std::vector<double> utils);

    /** Utilization of server @p server at step @p step. */
    double util(size_t step, size_t server) const;

    /** All server utilizations at one step. */
    const std::vector<double> &step(size_t s) const;

    /**
     * Copy one step's utilizations into @p out (resized to
     * numServers()), reusing its capacity — the allocation-free way
     * for a simulation loop to read consecutive steps.
     */
    void stepInto(size_t s, std::vector<double> &out) const;

    /**
     * Mean absolute step-to-step change of per-server utilization —
     * the "volatility" separating drastic from common traces.
     */
    double volatility() const;

    /**
     * Stable 64-bit digest of the whole trace (dimensions, interval
     * and every sample's exact bit pattern). Checkpoints embed it so a
     * resumed session provably continues the same workload.
     */
    uint64_t fingerprint() const;

  private:
    size_t num_servers_;
    double dt_;
    std::vector<std::vector<double>> data_;
};

} // namespace workload
} // namespace h2p

#endif // H2P_WORKLOAD_TRACE_H_
