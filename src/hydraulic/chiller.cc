#include "hydraulic/chiller.h"

#include "util/error.h"
#include "util/units.h"

namespace h2p {
namespace hydraulic {

Chiller::Chiller(const ChillerParams &params) : params_(params)
{
    expect(params.cop > 0.0, "chiller COP must be positive");
}

double
Chiller::electricPower(double heat_w) const
{
    expect(heat_w >= 0.0, "heat load must be non-negative");
    return heat_w / params_.cop;
}

double
Chiller::coolingLoad(double delta_t_c, double flow_lph)
{
    expect(delta_t_c >= 0.0, "temperature reduction must be >= 0");
    expect(flow_lph >= 0.0, "flow must be non-negative");
    return units::streamCapacitanceRate(flow_lph) * delta_t_c;
}

double
Chiller::energyToCool(double delta_t_c, int num_servers, double flow_lph,
                      double seconds) const
{
    expect(num_servers >= 0, "server count must be non-negative");
    expect(seconds >= 0.0, "duration must be non-negative");
    double load_w =
        coolingLoad(delta_t_c, flow_lph) * static_cast<double>(num_servers);
    return electricPower(load_w) * seconds;
}

} // namespace hydraulic
} // namespace h2p
