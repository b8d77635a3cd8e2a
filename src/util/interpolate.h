/**
 * @file
 * Interpolation over regular grids.
 *
 * Sec. V-B of the paper fits its discrete (utilization, flow rate, inlet
 * temperature) -> CPU-temperature measurements into a continuous
 * "look-up space". These classes provide the regular-grid axis and the
 * 3-D interpolator that back that space.
 */

#ifndef H2P_UTIL_INTERPOLATE_H_
#define H2P_UTIL_INTERPOLATE_H_

#include <cstddef>
#include <vector>

namespace h2p {

/**
 * The linear blend a * (1 - t) + b * t that every grid interpolator
 * here uses. Tables precomputed from a grid blend with it too, so they
 * reproduce the grid's results bit for bit. (std::lerp rounds
 * differently and is not a substitute.)
 */
inline double
lerp(double a, double b, double t)
{
    return a * (1 - t) + b * t;
}

/**
 * One axis of a regular grid: `count` samples evenly spaced on
 * [lo, hi]. Provides clamped fractional indexing for interpolation.
 */
class GridAxis
{
  public:
    /**
     * @param lo Lowest coordinate.
     * @param hi Highest coordinate (must exceed @p lo).
     * @param count Number of samples (>= 2).
     */
    GridAxis(double lo, double hi, size_t count);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    size_t count() const { return count_; }

    /** Coordinate of sample @p i. */
    double coord(size_t i) const;

    /**
     * Clamped fractional position of @p x: returns the base index and
     * the interpolation weight in [0, 1] toward the next sample.
     * +-inf clamp to the ends; NaN throws h2p::Error.
     */
    void locate(double x, size_t &idx, double &frac) const;

  private:
    double lo_;
    double hi_;
    size_t count_;
    double step_;
};

/**
 * Trilinear interpolation on a regular 3-D grid. Values are stored with
 * x as the slowest axis and z as the fastest: index = (i*ny + j)*nz + k.
 */
class LinearGrid3D
{
  public:
    LinearGrid3D(GridAxis x, GridAxis y, GridAxis z,
                 std::vector<double> values);

    /** Clamped trilinear interpolation at (@p x, @p y, @p z). */
    double operator()(double x, double y, double z) const;

    /**
     * The y/z stage of operator() at every x sample and every (y, z)
     * grid node, laid out like the values: entry (i*ny + j)*nz + k is
     * the value operator() blends along x, for x sample i, at
     * (yAxis().coord(j), zAxis().coord(k)). So
     * lerp(T[i][j][k], T[i+1][j][k], tx) equals operator() at x with
     * locate(x) = (i, tx) and that node, bit for bit.
     */
    std::vector<double> yzNodeTable() const;

    const GridAxis &xAxis() const { return x_; }
    const GridAxis &yAxis() const { return y_; }
    const GridAxis &zAxis() const { return z_; }

  private:
    double at(size_t i, size_t j, size_t k) const;

    /** Bilinear blend within x sample @p i. */
    double yzStage(size_t i, size_t j, double ty, size_t k,
                   double tz) const;

    GridAxis x_;
    GridAxis y_;
    GridAxis z_;
    std::vector<double> values_;
};

} // namespace h2p

#endif // H2P_UTIL_INTERPOLATE_H_
