#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace h2p {
namespace stats {

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    expect(bins >= 1, "histogram needs at least one bin");
    expect(hi > lo, "histogram upper edge must exceed lower edge");
}

void
Histogram::add(double x)
{
    double t = (x - lo_) / width_;
    long i = static_cast<long>(std::floor(t));
    i = std::clamp(i, 0L, static_cast<long>(counts_.size()) - 1);
    ++counts_[static_cast<size_t>(i)];
    ++total_;
}

size_t
Histogram::binCount(size_t i) const
{
    expect(i < counts_.size(), "histogram bin ", i, " out of range");
    return counts_[i];
}

double
Histogram::binLo(size_t i) const
{
    expect(i < counts_.size(), "histogram bin ", i, " out of range");
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::binHi(size_t i) const
{
    return binLo(i) + width_;
}

} // namespace stats
} // namespace h2p
