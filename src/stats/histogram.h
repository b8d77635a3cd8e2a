/**
 * @file
 * Fixed-bin histogram used to characterize trace statistics.
 */

#ifndef H2P_STATS_HISTOGRAM_H_
#define H2P_STATS_HISTOGRAM_H_

#include <cstddef>
#include <vector>

namespace h2p {
namespace stats {

/**
 * Histogram over [lo, hi) with equal-width bins. Out-of-range samples
 * are counted in saturating edge bins so no observation is lost.
 */
class Histogram
{
  public:
    /**
     * @param lo Lower edge of the first bin.
     * @param hi Upper edge of the last bin (> @p lo).
     * @param bins Number of bins (>= 1).
     */
    Histogram(double lo, double hi, size_t bins);

    /** Record one observation. */
    void add(double x);

    /** Count in bin @p i. */
    size_t binCount(size_t i) const;

    /** Lower edge of bin @p i. */
    double binLo(size_t i) const;

    /** Upper edge of bin @p i. */
    double binHi(size_t i) const;

    /** Number of bins. */
    size_t numBins() const { return counts_.size(); }

    /** Total number of recorded observations. */
    size_t total() const { return total_; }

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<size_t> counts_;
    size_t total_ = 0;
};

} // namespace stats
} // namespace h2p

#endif // H2P_STATS_HISTOGRAM_H_
