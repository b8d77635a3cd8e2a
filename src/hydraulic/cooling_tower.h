/**
 * @file
 * Evaporative cooling tower.
 *
 * In the FWS (Fig. 1), "heat is removed mainly by the cooling tower
 * via evaporation"; the chiller only tops up when the ambient is too
 * warm. The tower can cool the facility water down to the ambient
 * wet-bulb temperature plus an approach; the fan power is a small
 * fraction of the rejected heat. This split is what makes warm-water
 * setpoints cheap (tower does everything) and cold setpoints expensive
 * (chiller makes up the gap at 1/COP).
 */

#ifndef H2P_HYDRAULIC_COOLING_TOWER_H_
#define H2P_HYDRAULIC_COOLING_TOWER_H_

namespace h2p {
namespace hydraulic {

/** Cooling tower configuration. */
struct CoolingTowerParams
{
    /** Closest the leaving water can get to the wet bulb, C. */
    double approach_c = 4.0;
    /** Fan + spray power per watt of heat rejected (W/W). */
    double fan_power_per_watt = 0.01;
};

/**
 * An evaporative tower: rejects heat for ~1 % electrical overhead but
 * cannot cool below wet bulb + approach.
 */
class CoolingTower
{
  public:
    CoolingTower() : CoolingTower(CoolingTowerParams{}) {}

    explicit CoolingTower(const CoolingTowerParams &params);

    /** Lowest achievable leaving-water temperature, C. */
    double minLeavingTemp(double wet_bulb_c) const;

    /** Fan power to reject @p heat_w of heat, W. */
    double fanPower(double heat_w) const;

    const CoolingTowerParams &params() const { return params_; }

  private:
    CoolingTowerParams params_;
};

} // namespace hydraulic
} // namespace h2p

#endif // H2P_HYDRAULIC_COOLING_TOWER_H_
