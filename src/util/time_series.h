/**
 * @file
 * Uniformly sampled time-series container.
 *
 * Workload traces, coolant temperatures and TEG power outputs are all
 * uniformly sampled series; this container carries the sample period so
 * energies (integrals over time) are computed consistently everywhere.
 */

#ifndef H2P_UTIL_TIME_SERIES_H_
#define H2P_UTIL_TIME_SERIES_H_

#include <cstddef>
#include <vector>

namespace h2p {

/**
 * A uniformly sampled sequence of doubles with a fixed sample period
 * (seconds). Sample i is the value over [i*dt, (i+1)*dt).
 */
class TimeSeries
{
  public:
    /** Empty series with period @p dt_s seconds. */
    explicit TimeSeries(double dt_s);

    /** Series from existing samples. */
    TimeSeries(double dt_s, std::vector<double> samples);

    /** Sample period in seconds. */
    double dt() const { return dt_; }

    /** Number of samples. */
    size_t size() const { return samples_.size(); }

    /** True when no samples have been recorded. */
    bool empty() const { return samples_.empty(); }

    /** Total covered time in seconds. */
    double duration() const { return dt_ * static_cast<double>(size()); }

    /** Append one sample. */
    void append(double value) { samples_.push_back(value); }

    /** Sample @p i (bounds-checked). */
    double at(size_t i) const;

    /** Raw sample storage. */
    const std::vector<double> &samples() const { return samples_; }

    /** Timestamp (seconds) of the start of sample @p i. */
    double timeOf(size_t i) const { return dt_ * static_cast<double>(i); }

    /** Arithmetic mean of all samples (0 when empty). */
    double mean() const;

    /** Largest sample; throws on an empty series. */
    double max() const;

    /** Smallest sample; throws on an empty series. */
    double min() const;

    /**
     * Integral of the series over time (sum of sample * dt). For a
     * power series in watts this is the energy in joules.
     */
    double integral() const;

    /** Elementwise sum of two series with identical dt and length. */
    TimeSeries operator+(const TimeSeries &other) const;

  private:
    double dt_;
    std::vector<double> samples_;
};

} // namespace h2p

#endif // H2P_UTIL_TIME_SERIES_H_
