/**
 * @file
 * Facility water plant: cooling tower + chiller + CDU working together
 * to deliver the requested TCS supply temperature.
 *
 * The economics of warm-water cooling live here: as long as the
 * requested supply temperature is reachable by the tower (wet bulb +
 * approach + exchanger approach), the chiller is off and cooling costs
 * ~1 % of the rejected heat in fan power. Below that threshold every
 * extra degree is bought at 1/COP. The bench sweeping the supply
 * setpoint reproduces the paper's "raising 7-10 C to 18-20 C saves
 * ~40 %" argument (Sec. I).
 */

#ifndef H2P_HYDRAULIC_PLANT_H_
#define H2P_HYDRAULIC_PLANT_H_

#include "hydraulic/chiller.h"
#include "hydraulic/cooling_tower.h"

namespace h2p {
namespace hydraulic {

/** Plant configuration. */
struct PlantParams
{
    ChillerParams chiller;
    CoolingTowerParams tower;
    /** CDU exchanger approach: FWS must be this much colder, C. */
    double cdu_approach_c = 2.0;
    /** Ambient wet-bulb temperature, C. */
    double wet_bulb_c = 18.0;

    /**
     * Names every field once, the chiller's and the tower's flattened
     * in: INI keys ([plant]) and digests.
     */
    template <typename V>
    void visit(V &v)
    {
        v("wet_bulb_c", wet_bulb_c);
        v("cop", chiller.cop);
        v("tower_approach_c", tower.approach_c);
        v("tower_fan_power_per_watt", tower.fan_power_per_watt);
        v("cdu_approach_c", cdu_approach_c);
    }
};

/** Power breakdown for one plant evaluation. */
struct PlantPower
{
    /** Chiller electrical power, W. */
    double chiller_w = 0.0;
    /** Tower fan electrical power, W. */
    double tower_w = 0.0;
    /** True when the chiller had to run. */
    bool chiller_on = false;

    double total() const { return chiller_w + tower_w; }
};

/** Availability of the plant's major components (fault model). */
struct PlantHealth
{
    /** Chiller tripped/out of service. */
    bool chiller_out = false;
    /** Cooling tower out of service (fans/fill/basin). */
    bool tower_out = false;

    bool clean() const { return !chiller_out && !tower_out; }
};

/**
 * The facility water system serving one or more circulations.
 */
class FacilityPlant
{
  public:
    FacilityPlant() : FacilityPlant(PlantParams{}) {}

    explicit FacilityPlant(const PlantParams &params);

    /**
     * Electrical power to reject @p heat_w while supplying the TCS at
     * @p tcs_supply_c with total TCS flow @p tcs_flow_lph.
     *
     * The tower covers everything when tcs_supply - cdu_approach is at
     * or above wet bulb + approach; otherwise the chiller cools the
     * stream across the remaining temperature gap.
     */
    PlantPower power(double heat_w, double tcs_supply_c,
                     double tcs_flow_lph) const;

    /**
     * Same evaluation under component outages. With the chiller out,
     * only free cooling remains (the supply floors at
     * freeCoolingLimit(); pair with achievableSupply()). With the
     * tower out, every watt is rejected through the chiller at 1/COP.
     * With both out the plant is dark and rejects nothing.
     */
    PlantPower power(double heat_w, double tcs_supply_c,
                     double tcs_flow_lph,
                     const PlantHealth &health) const;

    /**
     * The supply temperature the degraded plant can actually deliver
     * for a requested setpoint: the request itself when healthy (or
     * only the tower is out), floored at freeCoolingLimit() with the
     * chiller out, and floored at freeCoolingLimit() plus a dead-plant
     * penalty when nothing runs (residual thermosiphon/bypass
     * rejection only).
     */
    double achievableSupply(double requested_c,
                            const PlantHealth &health) const;

    /** Lowest TCS supply the tower alone can sustain, C. */
    double freeCoolingLimit() const;

    /** Supply-temperature penalty over free cooling when dark, C. */
    static constexpr double kDarkPlantPenaltyC = 12.0;

    const PlantParams &params() const { return params_; }

  private:
    PlantParams params_;
    Chiller chiller_;
    CoolingTower tower_;
};

} // namespace hydraulic
} // namespace h2p

#endif // H2P_HYDRAULIC_PLANT_H_
