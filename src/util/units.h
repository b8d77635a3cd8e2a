/**
 * @file
 * Unit conversion helpers and physical constants.
 *
 * All internal computation uses SI (kg, s, W, J, K differences); the
 * public API speaks the paper's units (L/H flow, degrees Celsius) and
 * converts at the boundary with these helpers.
 */

#ifndef H2P_UTIL_UNITS_H_
#define H2P_UTIL_UNITS_H_

namespace h2p {
namespace units {

/** Specific heat capacity of water, J/(kg*K). Paper Sec. V-A. */
inline constexpr double kWaterHeatCapacity = 4.2e3;

/** Density of water, kg/m^3. */
inline constexpr double kWaterDensity = 1.0e3;

/** Seconds per hour. */
inline constexpr double kSecondsPerHour = 3600.0;

/** Hours per month used for billing math (365.25/12 days). */
inline constexpr double kHoursPerMonth = 730.5;

/** Convert a volumetric flow in litres/hour to a mass flow in kg/s. */
constexpr double
litresPerHourToKgPerSec(double lph)
{
    // 1 L of water is 1 kg.
    return lph / kSecondsPerHour;
}

/** Convert degrees Celsius to Kelvin. */
constexpr double
celsiusToKelvin(double c)
{
    return c + 273.15;
}

/** Convert joules to kilowatt-hours. */
constexpr double
joulesToKwh(double joules)
{
    return joules / 3.6e6;
}

/**
 * Thermal capacitance rate of a water stream, W/K: energy needed per
 * second to raise the stream temperature by 1 K.
 */
constexpr double
streamCapacitanceRate(double flow_lph)
{
    return litresPerHourToKgPerSec(flow_lph) * kWaterHeatCapacity;
}

} // namespace units
} // namespace h2p

#endif // H2P_UTIL_UNITS_H_
