/**
 * @file
 * Battery energy store (Sec. VI-B).
 *
 * TEG output is fluctuant — high at night when loads are low and
 * inlet water can run warm, low at midday peaks — so H2P buffers it.
 * The battery is the bulk store: high capacity, moderate round-trip
 * efficiency, bounded charge/discharge power.
 */

#ifndef H2P_STORAGE_BATTERY_H_
#define H2P_STORAGE_BATTERY_H_

namespace h2p {
namespace storage {

/** Battery configuration. */
struct BatteryParams
{
    /** Usable capacity, Wh. */
    double capacity_wh = 200.0;
    /** Round-trip efficiency (applied on charge). */
    double round_trip_eff = 0.80;
    /** Maximum charge power, W. */
    double max_charge_w = 20.0;
    /** Maximum discharge power, W. */
    double max_discharge_w = 20.0;
    /** Initial state of charge, fraction of capacity. */
    double initial_soc = 0.5;
};

/**
 * A simple power-limited, efficiency-lossy energy store. The same
 * class also models the super-capacitor (different parameters).
 */
class Battery
{
  public:
    Battery() : Battery(BatteryParams{}) {}

    explicit Battery(const BatteryParams &params);

    /** Stored energy, Wh. */
    double stored() const { return stored_wh_; }

    /**
     * Offer @p watts of charging power for @p dt_s seconds.
     * @return The power actually absorbed from the source, W (limited
     *         by the power cap and the remaining headroom).
     */
    double charge(double watts, double dt_s);

    /**
     * Request @p watts of discharge power for @p dt_s seconds.
     * @return The power actually delivered, W.
     */
    double discharge(double watts, double dt_s);

    const BatteryParams &params() const { return params_; }

  private:
    BatteryParams params_;
    double stored_wh_;
};

/** Super-capacitor preset: small, efficient, power-dense (Sec. VI-B). */
BatteryParams supercapParams();

} // namespace storage
} // namespace h2p

#endif // H2P_STORAGE_BATTERY_H_
