/**
 * @file
 * Structure-of-arrays step kernel for per-server physics.
 *
 * The fleet hot path evaluates every server of a circulation through
 * the same model chain — CPU power (Eq. 20), die temperature and
 * advection energy balance (Fig. 9-11), TEG harvest (Eq. 3-7) — at one
 * shared cooling setting. ServerBlock hoists every setting-dependent
 * coefficient once per circulation per step (plate resistance and
 * coolant slope at the commanded flow, the stream capacitance rate,
 * the TEG flow coupling and fit coefficients) and then runs the
 * per-server math as tight passes over contiguous arrays that the
 * compiler can auto-vectorize.
 *
 * Bit-identity contract: every elementwise expression performs exactly
 * the floating-point operations of the scalar Server::evaluate path on
 * the same values (the build passes -ffp-contract=off, so the compiler
 * fuses no a*b+c into an FMA on either side), and every reduction
 * (sums, hottest die, all-safe) accumulates in server-index order, so
 * a ServerBlock evaluation is bit-identical to looping
 * Server::evaluate — clean and faulted. Tests enforce this
 * (tests/soa_test.cc).
 */

#ifndef H2P_CLUSTER_SERVER_BLOCK_H_
#define H2P_CLUSTER_SERVER_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/server.h"
#include "thermal/cpu.h"
#include "thermal/teg.h"

namespace h2p {
namespace cluster {

/**
 * Per-server state in structure-of-arrays layout: the fleet-wide
 * block behind DatacenterState, in which each circulation owns one
 * contiguous segment. Hot consumers read the arrays directly; AoS
 * consumers (tests) materialize a ServerState through server() /
 * operator[].
 */
struct ServerStateBlock
{
    std::vector<double> util;
    std::vector<double> cpu_power_w;
    std::vector<double> die_temp_c;
    std::vector<double> outlet_c;
    std::vector<double> heat_w;
    std::vector<double> teg_power_w;
    std::vector<double> teg_power_lost_w;
    std::vector<uint8_t> faulted;
    std::vector<uint8_t> safe;

    size_t size() const { return util.size(); }
    bool empty() const { return util.empty(); }

    /** Resize every lane (values of grown lanes are unspecified). */
    void resize(size_t n);

    /** Materialize the AoS view of server @p i. */
    ServerState server(size_t i) const;

    /** Vector-style AoS access (materializes a copy). */
    ServerState operator[](size_t i) const { return server(i); }

    /** Materialize all servers into @p out (resized to size()). */
    void materializeInto(std::vector<ServerState> &out) const;
};

/**
 * Per-server fault lanes in the flat form the kernel consumes (the
 * SoA mirror of ServerHealth). Null pointers mean "healthy in that
 * dimension for every server"; non-null pointers address one value
 * per server.
 */
struct ServerHealthLanes
{
    /** Extra die-to-coolant resistance from fouling, K/W. */
    const double *fouling_kpw = nullptr;
    /** Non-zero: one series TEG is open, the whole string is dead. */
    const uint8_t *teg_open = nullptr;
    /** Short-circuited TEGs dropped from the string. */
    const size_t *tegs_shorted = nullptr;

    bool allHealthy() const
    {
        return fouling_kpw == nullptr && teg_open == nullptr &&
               tegs_shorted == nullptr;
    }
};

/**
 * The vectorized per-server evaluation kernel. The datacenter builds
 * one instance and runs it over every circulation's segment, every
 * step; it owns copies of the per-server models only to hoist
 * coefficients, never to evaluate a single server at a time.
 */
class ServerBlock
{
  public:
    explicit ServerBlock(const ServerParams &params);

    /**
     * Everything in the per-server math that depends only on the
     * shared cooling setting and cold-source temperature, computed
     * once per circulation per step.
     */
    struct Coeffs
    {
        double flow_lph = 0.0;
        double t_in_c = 0.0;
        double t_cold_c = 0.0;
        thermal::CpuStepCoefficients cpu;
        thermal::TegStepCoefficients teg;
    };

    /** Hoist all setting-dependent coefficients for one step. */
    Coeffs coefficients(double flow_lph, double t_in_c,
                        double t_cold_c) const;

    /**
     * Evaluate @p n servers at one cooling setting: utils[0..n)
     * through the full model chain into out[offset, offset + n), a
     * range @p out must already hold. Null @p lanes (allHealthy())
     * are the healthy evaluation, bit-identical to
     * Server::evaluate(util, flow, t_in, t_cold) per server. Present
     * lanes match Server::evaluate(util, flow, t_in, t_cold, health)
     * per server; their healthy lanes reproduce the healthy numbers
     * bit for bit (the fouling term adds +0.0 and the TEG derating
     * multiplies by 1.0, both exact).
     */
    void evaluate(const double *utils, size_t n, const Coeffs &c,
                  const ServerHealthLanes &lanes, ServerStateBlock &out,
                  size_t offset) const;

    /** Index-ordered reduction over an evaluated block. */
    struct Totals
    {
        double cpu_power_w = 0.0;
        double teg_power_w = 0.0;
        double teg_power_lost_w = 0.0;
        double heat_w = 0.0;
        /** Sum of outlet temperatures (return_c = sum / n). */
        double sum_outlet_c = 0.0;
        double max_die_c = 0.0;
        size_t faulted_servers = 0;
        bool all_safe = true;
    };

    /**
     * Reduce block[offset, offset + n) in server-index order, exactly
     * the accumulation order of the scalar loop, so totals are
     * bit-identical no matter how the elementwise passes were
     * vectorized.
     */
    static Totals reduce(const ServerStateBlock &block, size_t offset,
                         size_t n);

  private:
    // Value copies of the models (cheap, parameter-only) so the block
    // can hoist coefficients without referencing a Server that may
    // move; plus the raw constants the passes consume.
    thermal::CpuThermalModel thermal_;
    thermal::TegModule teg_;
    double power_scale_ = 0.0;
    double power_shift_ = 0.0;
    double power_offset_ = 0.0;
    double gamma_slope_ = 0.0;
    double leak_gamma_ = 0.0;
    double leak_ref_c_ = 0.0;
    double parasitic_w_ = 0.0;
    double max_operating_c_ = 0.0;
    size_t teg_count_ = 0;
};

} // namespace cluster
} // namespace h2p

#endif // H2P_CLUSTER_SERVER_BLOCK_H_
