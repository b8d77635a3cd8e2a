#include "stats/summary.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace h2p {
namespace stats {

void
RunningStats::add(double x)
{
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    size_t n = count_ + other.count_;
    double delta = other.mean_ - mean_;
    double nd = static_cast<double>(n);
    m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                           static_cast<double>(other.count_) / nd;
    mean_ += delta * static_cast<double>(other.count_) / nd;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ = n;
}

double
percentile(std::vector<double> values, double p)
{
    expect(!values.empty(), "percentile of an empty sample");
    expect(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
    std::sort(values.begin(), values.end());
    if (values.size() == 1)
        return values.front();
    double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

} // namespace stats
} // namespace h2p
