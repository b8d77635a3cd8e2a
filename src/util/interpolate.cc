#include "util/interpolate.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace h2p {

GridAxis::GridAxis(double lo, double hi, size_t count)
    : lo_(lo), hi_(hi), count_(count),
      step_((hi - lo) / static_cast<double>(count - 1))
{
    expect(count >= 2, "grid axis needs at least 2 samples");
    expect(hi > lo, "grid axis upper bound must exceed lower bound");
}

double
GridAxis::coord(size_t i) const
{
    H2P_ASSERT(i < count_, "axis index out of range");
    return lo_ + step_ * static_cast<double>(i);
}

void
GridAxis::locate(double x, size_t &idx, double &frac) const
{
    // NaN would pass both clamps below into an undefined float-to-size_t
    // conversion and an out-of-range index.
    expect(!std::isnan(x), "grid coordinate is NaN");
    double t = (x - lo_) / step_;
    if (t <= 0.0) {
        idx = 0;
        frac = 0.0;
        return;
    }
    if (t >= static_cast<double>(count_ - 1)) {
        idx = count_ - 2;
        frac = 1.0;
        return;
    }
    idx = static_cast<size_t>(t);
    frac = t - static_cast<double>(idx);
}

LinearGrid3D::LinearGrid3D(GridAxis x, GridAxis y, GridAxis z,
                           std::vector<double> values)
    : x_(x), y_(y), z_(z), values_(std::move(values))
{
    expect(values_.size() == x_.count() * y_.count() * z_.count(),
           "3-D grid expects ", x_.count() * y_.count() * z_.count(),
           " values, got ", values_.size());
}

double
LinearGrid3D::at(size_t i, size_t j, size_t k) const
{
    return values_[(i * y_.count() + j) * z_.count() + k];
}

double
LinearGrid3D::yzStage(size_t i, size_t j, double ty, size_t k,
                      double tz) const
{
    return lerp(lerp(at(i, j, k), at(i, j, k + 1), tz),
                lerp(at(i, j + 1, k), at(i, j + 1, k + 1), tz), ty);
}

double
LinearGrid3D::operator()(double x, double y, double z) const
{
    size_t i, j, k;
    double tx, ty, tz;
    x_.locate(x, i, tx);
    y_.locate(y, j, ty);
    z_.locate(z, k, tz);
    return lerp(yzStage(i, j, ty, k, tz), yzStage(i + 1, j, ty, k, tz),
                tx);
}

std::vector<double>
LinearGrid3D::yzNodeTable() const
{
    // Locate each node the way operator() would: on axes whose step is
    // not exactly representable, coord(j) may land just below node j.
    std::vector<size_t> yj(y_.count()), zk(z_.count());
    std::vector<double> ty(y_.count()), tz(z_.count());
    for (size_t j = 0; j < y_.count(); ++j)
        y_.locate(y_.coord(j), yj[j], ty[j]);
    for (size_t k = 0; k < z_.count(); ++k)
        z_.locate(z_.coord(k), zk[k], tz[k]);

    std::vector<double> table;
    table.reserve(values_.size());
    for (size_t i = 0; i < x_.count(); ++i)
        for (size_t j = 0; j < y_.count(); ++j)
            for (size_t k = 0; k < z_.count(); ++k)
                table.push_back(yzStage(i, yj[j], ty[j], zk[k], tz[k]));
    return table;
}

} // namespace h2p
