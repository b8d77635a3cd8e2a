/**
 * @file
 * Ambient climate model for the facility plant.
 *
 * Sec. I's economics rest on the claim that warm supply setpoints
 * let the cooling tower do all the work: the chiller only runs when
 * the ambient wet-bulb plus approach exceeds what the setpoint
 * allows. The wet bulb swings daily and seasonally, so the fraction
 * of the year spent in free cooling — and hence the "raising
 * 7-10 C to 18-20 C saves ~40 %" argument — is a climate integral.
 * This model provides a seasonal + diurnal wet-bulb series for a few
 * reference sites.
 */

#ifndef H2P_HYDRAULIC_CLIMATE_H_
#define H2P_HYDRAULIC_CLIMATE_H_

#include <string>

namespace h2p {
namespace hydraulic {

/** Climate description. */
struct ClimateParams
{
    std::string name = "temperate";
    /** Annual-mean wet-bulb temperature, C. */
    double mean_wet_bulb_c = 12.0;
    /** Seasonal half-swing, C (peak mid-year in this model). */
    double seasonal_amp_c = 8.0;
    /** Diurnal half-swing, C (peak mid-afternoon). */
    double diurnal_amp_c = 3.0;
};

/**
 * Deterministic wet-bulb series: mean + seasonal sine + diurnal
 * sine. Deterministic so experiments are reproducible; noise can be
 * layered by the caller.
 */
class Climate
{
  public:
    Climate() : Climate(ClimateParams{}) {}

    explicit Climate(const ClimateParams &params);

    /**
     * Wet-bulb temperature at @p hour_of_year in [0, 8760), C.
     * Hour 0 is midnight, January 1st; the seasonal peak falls at
     * mid-year (northern-hemisphere convention).
     */
    double wetBulbAt(double hour_of_year) const;

    const ClimateParams &params() const { return params_; }

    /** Hot-humid tropical site (Singapore-like). */
    static Climate singapore();

    /** Mid-latitude continental site (Frankfurt-like). */
    static Climate frankfurt();

    /** Cool maritime site (Dublin-like). */
    static Climate dublin();

    /** Hot-dry desert site (Phoenix-like; dry air keeps WB lower). */
    static Climate phoenix();

  private:
    ClimateParams params_;
};

} // namespace hydraulic
} // namespace h2p

#endif // H2P_HYDRAULIC_CLIMATE_H_
