#include "hydraulic/cooling_tower.h"

#include "util/error.h"

namespace h2p {
namespace hydraulic {

CoolingTower::CoolingTower(const CoolingTowerParams &params)
    : params_(params)
{
    expect(params.approach_c >= 0.0, "approach must be non-negative");
    expect(params.fan_power_per_watt >= 0.0,
           "fan power fraction must be non-negative");
}

double
CoolingTower::minLeavingTemp(double wet_bulb_c) const
{
    return wet_bulb_c + params_.approach_c;
}

double
CoolingTower::fanPower(double heat_w) const
{
    expect(heat_w >= 0.0, "heat load must be non-negative");
    return heat_w * params_.fan_power_per_watt;
}

} // namespace hydraulic
} // namespace h2p
