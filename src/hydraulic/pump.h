/**
 * @file
 * Variable-speed circulation pump.
 *
 * Each water circulation has a centralized pump (Sec. V-A). Raising
 * the flow rate raises the TEG voltage only slightly (Fig. 7) but the
 * pump power grows with the cube of flow (affinity laws), which is why
 * the paper concludes the flow knob is "too little to be worth making".
 * The ablation bench quantifies exactly that trade-off.
 */

#ifndef H2P_HYDRAULIC_PUMP_H_
#define H2P_HYDRAULIC_PUMP_H_

namespace h2p {
namespace hydraulic {

/** Rated operating point of a pump. */
struct PumpParams
{
    /** Rated volumetric flow, L/H. */
    double rated_flow_lph = 200.0;
    /** Electrical power at rated flow, W. */
    double rated_power_w = 15.0;
    /** Standby electronics power, W. */
    double idle_power_w = 0.5;
    /** Largest deliverable flow, L/H. */
    double max_flow_lph = 400.0;

    /** Names every field once: INI keys ([pump]) and digests. */
    template <typename V>
    void visit(V &v)
    {
        v("rated_flow_lph", rated_flow_lph);
        v("rated_power_w", rated_power_w);
        v("idle_power_w", idle_power_w);
        v("max_flow_lph", max_flow_lph);
    }
};

/**
 * A variable-speed pump following the affinity laws: shaft power
 * scales with the cube of the flow ratio.
 */
class Pump
{
  public:
    Pump() : Pump(PumpParams{}) {}

    explicit Pump(const PumpParams &params);

    /** Electrical power to sustain @p flow_lph, W. */
    double power(double flow_lph) const;

    /** Clamp a requested flow to the deliverable range. */
    double clampFlow(double flow_lph) const;

    const PumpParams &params() const { return params_; }

  private:
    PumpParams params_;
};

} // namespace hydraulic
} // namespace h2p

#endif // H2P_HYDRAULIC_PUMP_H_
