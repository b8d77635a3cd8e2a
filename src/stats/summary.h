/**
 * @file
 * Streaming summary statistics and percentile helpers.
 */

#ifndef H2P_STATS_SUMMARY_H_
#define H2P_STATS_SUMMARY_H_

#include <cstddef>
#include <limits>
#include <vector>

namespace h2p {
namespace stats {

/**
 * Numerically stable (Welford) running summary of a sample stream:
 * count, mean, variance, min and max in O(1) memory.
 */
class RunningStats
{
  public:
    RunningStats() = default;

    /** Fold one observation into the summary. */
    void add(double x);

    /** Number of observations so far. */
    size_t count() const { return count_; }

    /** Sample mean (0 when empty). */
    double mean() const { return mean_; }

    /** Unbiased sample variance (0 when count < 2). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation; NaN when empty. */
    double min() const { return min_; }

    /** Largest observation; NaN when empty. */
    double max() const { return max_; }

    /** Sum of all observations. */
    double sum() const { return sum_; }

    /** Merge another summary into this one (parallel reduction). */
    void merge(const RunningStats &other);

  private:
    size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::quiet_NaN();
    double max_ = std::numeric_limits<double>::quiet_NaN();
};

/**
 * Percentile of a sample set by linear interpolation between closest
 * ranks; @p p in [0, 100]. The input is copied and sorted.
 */
double percentile(std::vector<double> values, double p);

} // namespace stats
} // namespace h2p

#endif // H2P_STATS_SUMMARY_H_
