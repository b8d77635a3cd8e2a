#include "util/time_series.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"

namespace h2p {

TimeSeries::TimeSeries(double dt_s) : dt_(dt_s)
{
    expect(dt_s > 0.0, "time-series period must be positive");
}

TimeSeries::TimeSeries(double dt_s, std::vector<double> samples)
    : dt_(dt_s), samples_(std::move(samples))
{
    expect(dt_s > 0.0, "time-series period must be positive");
}

double
TimeSeries::at(size_t i) const
{
    expect(i < samples_.size(), "time-series index ", i, " out of range");
    return samples_[i];
}

double
TimeSeries::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = std::accumulate(samples_.begin(), samples_.end(), 0.0);
    return sum / static_cast<double>(samples_.size());
}

double
TimeSeries::max() const
{
    expect(!samples_.empty(), "max() of an empty time series");
    return *std::max_element(samples_.begin(), samples_.end());
}

double
TimeSeries::min() const
{
    expect(!samples_.empty(), "min() of an empty time series");
    return *std::min_element(samples_.begin(), samples_.end());
}

double
TimeSeries::integral() const
{
    double sum = std::accumulate(samples_.begin(), samples_.end(), 0.0);
    return sum * dt_;
}

TimeSeries
TimeSeries::operator+(const TimeSeries &other) const
{
    expect(dt_ == other.dt_, "cannot add series with different periods");
    expect(size() == other.size(),
           "cannot add series with different lengths");
    TimeSeries out(dt_);
    for (size_t i = 0; i < size(); ++i)
        out.append(samples_[i] + other.samples_[i]);
    return out;
}

} // namespace h2p
