/**
 * @file
 * Structure-of-arrays step kernel for per-server physics.
 *
 * The fleet hot path evaluates every server of a circulation through
 * the same model chain — CPU power (Eq. 20), die temperature and
 * advection energy balance (Fig. 9-11), TEG harvest (Eq. 3-7) — at one
 * shared cooling setting. ServerBlock hoists every flow-dependent
 * coefficient (plate resistance and coolant slope at the thermal flow,
 * the stream capacitance rate, the TEG flow coupling and fit
 * coefficients) once per distinct flow per step — circulations at the
 * same flow share one hoist and differ only in their inlet
 * temperature — and then runs the per-server math as tight passes
 * over contiguous arrays that the compiler can auto-vectorize.
 *
 * Bit-identity contract: every elementwise expression performs exactly
 * the floating-point operations of the scalar Server::evaluate path on
 * the same values (the build passes -ffp-contract=off, so the compiler
 * fuses no a*b+c into an FMA on either side), and every reduction
 * (sums, hottest die, all-safe) accumulates in server-index order in
 * the kernel's closing pass, so a ServerBlock evaluation is
 * bit-identical to looping Server::evaluate — clean and faulted.
 * Tests enforce this (tests/soa_test.cc).
 *
 * Each fault acts in one stage, as in the paper's model of one TEG
 * string per server at the coolant outlet (Eq. 2, 6, 7): a pump fault
 * sets the loop's thermal flow (Datacenter), fouling is one plate
 * resistance for the whole loop in pass 2, and a faulted string only
 * derates its own server's output in the closing pass; the heat path
 * of that server is untouched.
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
 * contiguous segment. Consumers read the arrays directly.
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
};

/**
 * The faults one evaluate() call applies, split by the stage they act
 * on. Fouling is one value for the whole segment and acts on every
 * die through pass 2; a value that is not positive is no fouling, as
 * in ServerHealth::clean(). The TEG string lanes change only the
 * electrical output and are read only in the closing pass: null
 * pointers mean "no string faulted in that dimension", non-null ones
 * address one value per server.
 */
struct SegmentHealth
{
    /** Extra die-to-coolant resistance of every server, K/W. */
    double fouling_kpw = 0.0;
    /** Non-zero: one series TEG is open, the whole string is dead. */
    const uint8_t *teg_open = nullptr;
    /** Short-circuited TEGs dropped from the string. */
    const size_t *tegs_shorted = nullptr;

    /** Whether fouling acts (and faults every server). */
    bool fouled() const { return !(fouling_kpw <= 0.0); }

    bool hasStringLanes() const
    {
        return teg_open != nullptr || tegs_shorted != nullptr;
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
     * shared cooling setting and cold-source temperature. The flow
     * terms (cpu, teg) are a pure function of flow_lph, so a caller
     * may keep one Coeffs across circulations at a bitwise-equal flow
     * and update only t_in_c.
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

    /** Index-ordered totals over one evaluated segment. */
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
     * Evaluate @p n servers at one cooling setting: utils[0..n)
     * through the full model chain into out[offset, offset + n), a
     * range @p out must already hold, and return the segment's totals
     * (accumulated in server-index order). Each server matches
     * Server::evaluate(util, flow, t_in, t_cold, health) bit for bit,
     * with health its string lanes and the segment's fouling; a
     * default @p health is Server::evaluate(util, flow, t_in, t_cold).
     * A segment whose servers share one utilization (a balanced loop)
     * runs passes 1-5 on its first server only and copies the result
     * to the rest, whatever its string faults: those act only in the
     * closing pass, which still derates server by server.
     */
    Totals evaluate(const double *utils, size_t n, const Coeffs &c,
                    const SegmentHealth &health, ServerStateBlock &out,
                    size_t offset) const;

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
