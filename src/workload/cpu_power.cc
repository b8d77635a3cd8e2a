#include "workload/cpu_power.h"

#include <cmath>

#include "util/error.h"

namespace h2p {
namespace workload {

CpuPowerModel::CpuPowerModel(const CpuPowerParams &params)
    : params_(params)
{
    expect(params.scale > 0.0, "power-model scale must be positive");
    expect(params.shift > 0.0, "power-model shift must be positive");
}

double
CpuPowerModel::power(double u) const
{
    expect(u >= 0.0 && u <= 1.0, "utilization must be in [0, 1], got ",
           u);
    return params_.scale * std::log(u + params_.shift) + params_.offset;
}

} // namespace workload
} // namespace h2p
