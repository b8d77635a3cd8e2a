/**
 * @file
 * Utilization prediction for causal cooling control.
 *
 * The paper adjusts the cooling setting "at the beginning of each
 * interval" using that interval's utilization — implicitly assuming
 * the controller knows the load it is about to cool. A deployable
 * controller only knows the past. This module provides a per-server
 * EWMA predictor with a variance-based safety margin: the planning
 * utilization for the next interval is
 *
 *   u_hat = ewma + kappa * ewm_std     (clamped to [0, 1])
 *
 * so sudden spikes are absorbed by margin instead of violating
 * T_safe. control::PredictiveCoolingStage plans on it.
 */

#ifndef H2P_SCHED_PREDICTOR_H_
#define H2P_SCHED_PREDICTOR_H_

#include <cstddef>
#include <vector>

#include "util/bytes.h"

namespace h2p {
namespace sched {

/** Predictor tuning. */
struct PredictorParams
{
    /** EWMA smoothing factor in (0, 1]; larger reacts faster. */
    double alpha = 0.35;
    /** Safety margin in standard deviations. */
    double kappa = 2.0;
    /** Initial guess before any observation. */
    double initial = 0.5;
};

/**
 * Tracks one utilization stream per server and predicts a safe upper
 * bound for the next interval.
 */
class EwmaPredictor
{
  public:
    /**
     * @param num_streams Number of tracked servers.
     * @param params Tuning.
     */
    explicit EwmaPredictor(size_t num_streams,
                           const PredictorParams &params = {});

    /** Fold one interval of observations (num_streams entries). */
    void observe(const std::vector<double> &utils);

    /** EWMA level of stream @p i. */
    double mean(size_t i) const;

    /** EWM standard deviation of stream @p i. */
    double stddev(size_t i) const;

    /** Safe upper bound for stream @p i, clamped to [0, 1]. */
    double upperBound(size_t i) const;

    /** Largest upper bound across streams [lo, hi). */
    double maxUpperBound(size_t lo, size_t hi) const;

    /** Number of observations folded so far. */
    size_t observations() const { return observations_; }

    /**
     * Save or load the tracked state (levels, variances, observation
     * count). Loading checks the stream count against this
     * predictor's.
     */
    void visit(util::Archive &ar);

  private:
    PredictorParams params_;
    std::vector<double> mean_;
    std::vector<double> var_;
    size_t observations_ = 0;
};

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_PREDICTOR_H_
