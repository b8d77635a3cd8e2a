/**
 * @file
 * CPU power model (paper Eq. 20).
 *
 * The paper measures an Intel Xeon E5-2650 V3 and fits its package
 * power against utilization u in [0, 1]:
 *
 *   P_CPU(u) = 109.71 * ln(u + 1.17) - 7.83   [W]
 *
 * (RMSE below 5 W). This gives ~9.4 W idle and ~77 W at full load,
 * consistent with the part's 105 W TDP under the powersave governor.
 */

#ifndef H2P_WORKLOAD_CPU_POWER_H_
#define H2P_WORKLOAD_CPU_POWER_H_

namespace h2p {
namespace workload {

/** Coefficients of the logarithmic power fit. */
struct CpuPowerParams
{
    /** Multiplier of the log term, W. */
    double scale = 109.71;
    /** Shift inside the logarithm. */
    double shift = 1.17;
    /** Additive offset, W. */
    double offset = -7.83;

    /** Names every field once: INI keys ([power]) and digests. */
    template <typename V>
    void visit(V &v)
    {
        v("scale", scale);
        v("shift", shift);
        v("offset", offset);
    }
};

/**
 * Maps CPU utilization to dynamic package power.
 */
class CpuPowerModel
{
  public:
    CpuPowerModel() : CpuPowerModel(CpuPowerParams{}) {}

    explicit CpuPowerModel(const CpuPowerParams &params);

    /** Package power at utilization @p u in [0, 1], W (Eq. 20). */
    double power(double u) const;

    /** Full-load power P(1), W. */
    double peakPower() const { return power(1.0); }

    const CpuPowerParams &params() const { return params_; }

  private:
    CpuPowerParams params_;
};

} // namespace workload
} // namespace h2p

#endif // H2P_WORKLOAD_CPU_POWER_H_
