#include "hydraulic/climate.h"

#include <cmath>

#include "util/error.h"

namespace h2p {
namespace hydraulic {

Climate::Climate(const ClimateParams &params) : params_(params)
{
    expect(params.seasonal_amp_c >= 0.0 && params.diurnal_amp_c >= 0.0,
           "climate amplitudes must be non-negative");
}

double
Climate::wetBulbAt(double hour_of_year) const
{
    expect(hour_of_year >= 0.0 && hour_of_year < 8760.0,
           "hour of year out of range: ", hour_of_year);
    // Seasonal term peaks at mid-year (hour 4380), diurnal at 15:00.
    double season = std::cos(2.0 * M_PI *
                             (hour_of_year - 4380.0) / 8760.0);
    double hour_of_day = std::fmod(hour_of_year, 24.0);
    double diurnal =
        std::cos(2.0 * M_PI * (hour_of_day - 15.0) / 24.0);
    return params_.mean_wet_bulb_c + params_.seasonal_amp_c * season +
           params_.diurnal_amp_c * diurnal;
}

Climate
Climate::singapore()
{
    return Climate(ClimateParams{"Singapore", 25.0, 1.0, 2.0});
}

Climate
Climate::frankfurt()
{
    return Climate(ClimateParams{"Frankfurt", 9.0, 9.0, 3.0});
}

Climate
Climate::dublin()
{
    return Climate(ClimateParams{"Dublin", 8.5, 5.0, 2.5});
}

Climate
Climate::phoenix()
{
    return Climate(ClimateParams{"Phoenix", 13.0, 8.0, 3.5});
}

} // namespace hydraulic
} // namespace h2p
