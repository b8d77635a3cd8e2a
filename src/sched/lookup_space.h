/**
 * @file
 * The 3-D cooling look-up space (Fig. 12).
 *
 * Sec. V-B fits the discrete measurements of CPU temperature over
 * (utilization, flow rate, inlet temperature) into a continuous space
 * "which can function as a look-up space in practical use". This class
 * builds exactly that: it samples the calibrated server models onto a
 * regular 3-D grid and answers interpolated queries for the CPU
 * temperature and the outlet water temperature.
 */

#ifndef H2P_SCHED_LOOKUP_SPACE_H_
#define H2P_SCHED_LOOKUP_SPACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/server.h"
#include "util/interpolate.h"

namespace h2p {
namespace sched {

/** Grid extents of the look-up space. */
struct LookupSpaceParams
{
    /** Utilization axis: [0, 1]. */
    size_t util_points = 21;
    /**
     * Flow axis range, L/H. The evaluation space tops out at 100 L/H
     * (beyond which extra flow buys almost no CPU cooling, Fig. 11,
     * while pump power grows cubically).
     */
    double flow_min_lph = 10.0;
    double flow_max_lph = 100.0;
    size_t flow_points = 19;
    /** Inlet-temperature axis range, C. */
    double tin_min_c = 20.0;
    double tin_max_c = 55.0;
    size_t tin_points = 36;

    /** Names every field once: INI keys ([lookup]) and digests. */
    template <typename V>
    void visit(V &v)
    {
        v("flow_min_lph", flow_min_lph);
        v("flow_max_lph", flow_max_lph);
        v("flow_points", flow_points);
        v("tin_min_c", tin_min_c);
        v("tin_max_c", tin_max_c);
        v("tin_points", tin_points);
        v("util_points", util_points);
    }
};

/** One grid point of the look-up space. */
struct LookupPoint
{
    double util = 0.0;
    double flow_lph = 0.0;
    double t_in_c = 0.0;
    double t_cpu_c = 0.0;
    double t_out_c = 0.0;
};

/**
 * Interpolated (u, f, T_in) -> (T_CPU, T_out) space sampled from a
 * server model.
 */
class LookupSpace
{
  public:
    /**
     * Sample @p server onto the grid described by @p params.
     */
    explicit LookupSpace(const cluster::Server &server,
                         const LookupSpaceParams &params = {});

    /** Interpolated CPU temperature, C. */
    double cpuTemp(double util, double flow_lph, double t_in_c) const;

    /** Interpolated outlet water temperature, C. */
    double outletTemp(double util, double flow_lph, double t_in_c) const;

    /** The grid parameters. */
    const LookupSpaceParams &params() const { return params_; }

    /**
     * Visit every grid point of the slice u = @p util (Fig. 13's plane
     * U), with its interpolated temperatures, in the fixed (flow-major,
     * then inlet temperature) order without materializing a vector.
     * @p fn receives
     * each LookupPoint by const reference; the reference is only valid
     * during the call. The temperatures equal cpuTemp()/outletTemp()
     * at each point bit for bit: they blend the same two utilization
     * planes of precomputed node tables with the same lerp.
     */
    template <typename Fn>
    void forEachInSlice(double util, Fn &&fn) const
    {
        size_t i = 0;
        double tx = 0.0;
        t_cpu_->xAxis().locate(util, i, tx);
        const size_t plane = flow_coords_.size() * tin_coords_.size();
        const double *cpu = cpu_nodes_.data() + i * plane;
        const double *out = out_nodes_.data() + i * plane;
        LookupPoint p;
        p.util = util;
        size_t n = 0;
        for (double flow : flow_coords_) {
            p.flow_lph = flow;
            for (double t_in : tin_coords_) {
                p.t_in_c = t_in;
                p.t_cpu_c = lerp(cpu[n], cpu[n + plane], tx);
                p.t_out_c = lerp(out[n], out[n + plane], tx);
                fn(static_cast<const LookupPoint &>(p));
                ++n;
            }
        }
    }

    /**
     * The first point of the slice u = @p util, in forEachInSlice()
     * order, with the lowest CPU temperature — bit for bit the point a
     * first-strict-minimum scan over forEachInSlice() returns — found
     * by scanning only the coldest-point candidates of the utilization
     * cell that @p util falls in (see coldestCandidates()). A NaN
     * @p util throws, as in forEachInSlice().
     */
    LookupPoint coldestInSlice(double util) const;

    /** Total number of grid points. */
    size_t numPoints() const;

  private:
    LookupSpaceParams params_;
    std::unique_ptr<LinearGrid3D> t_cpu_;
    std::unique_ptr<LinearGrid3D> t_out_;
    /** yzNodeTable() of t_cpu_ / t_out_: one plane per util sample. */
    std::vector<double> cpu_nodes_;
    std::vector<double> out_nodes_;
    /** GridAxis::coord() of every flow / inlet node, in scan order. */
    std::vector<double> flow_coords_;
    std::vector<double> tin_coords_;
    /** coldestCandidates() of utilization cell i (planes i, i + 1). */
    std::vector<std::vector<uint32_t>> candidates_;
};

/**
 * The coldest-point candidates of one utilization cell: of the @p n
 * nodes of its two bounding planes @p lo and @p hi (scan order), the
 * indices, ascending, of those that no earlier node dominates — no
 * m < k has lo[m] <= lo[k] and hi[m] <= hi[k].
 *
 * Scanning only these for the first strict minimum of
 * lerp(lo[k], hi[k], t) finds the full scan's node for every t in
 * [0, 1]: lerp is monotone in both planes there, so a dominated node
 * never interpolates below its earlier dominator and cannot be the
 * first minimum. A *later* dominator must not prune: rounding can make
 * it interpolate equal, and then the earlier node wins the tie. The
 * values must be finite (totally ordered). Costs O(n × list length).
 */
std::vector<uint32_t> coldestCandidates(const double *lo,
                                        const double *hi, size_t n);

/**
 * The first strict minimum of lerp(lo[k], hi[k], @p t) over the nodes
 * k in [@p first, @p last) (non-empty, ascending) — the scan
 * coldestInSlice() runs over one cell's coldest-point candidates.
 */
uint32_t firstColdestNode(const double *lo, const double *hi, double t,
                          const uint32_t *first, const uint32_t *last);

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_LOOKUP_SPACE_H_
