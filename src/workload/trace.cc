#include "workload/trace.h"

#include <cmath>

#include "util/error.h"
#include "util/hash.h"

namespace h2p {
namespace workload {

UtilizationTrace::UtilizationTrace(size_t num_servers, double dt_s)
    : num_servers_(num_servers), dt_(dt_s)
{
    expect(num_servers >= 1, "trace needs at least one server");
    expect(dt_s > 0.0, "trace interval must be positive");
}

void
UtilizationTrace::addStep(std::vector<double> utils)
{
    expect(utils.size() == num_servers_, "trace step has ", utils.size(),
           " entries; expected ", num_servers_);
    for (double u : utils) {
        expect(u >= 0.0 && u <= 1.0,
               "trace utilization out of [0, 1]: ", u);
    }
    data_.push_back(std::move(utils));
}

double
UtilizationTrace::util(size_t step, size_t server) const
{
    expect(step < data_.size(), "trace step ", step, " out of range");
    expect(server < num_servers_, "server ", server, " out of range");
    return data_[step][server];
}

const std::vector<double> &
UtilizationTrace::step(size_t s) const
{
    expect(s < data_.size(), "trace step ", s, " out of range");
    return data_[s];
}

void
UtilizationTrace::stepInto(size_t s, std::vector<double> &out) const
{
    expect(s < data_.size(), "trace step ", s, " out of range");
    out.assign(data_[s].begin(), data_[s].end());
}

double
UtilizationTrace::volatility() const
{
    if (data_.size() < 2)
        return 0.0;
    double sum = 0.0;
    size_t count = 0;
    for (size_t s = 1; s < data_.size(); ++s) {
        for (size_t i = 0; i < num_servers_; ++i) {
            sum += std::abs(data_[s][i] - data_[s - 1][i]);
            ++count;
        }
    }
    return sum / static_cast<double>(count);
}

uint64_t
UtilizationTrace::fingerprint() const
{
    util::Fnv1a h;
    h.size(num_servers_);
    h.size(numSteps());
    h.f64(dt_);
    for (const auto &row : data_)
        for (double u : row)
            h.f64(u);
    return h.digest();
}

} // namespace workload
} // namespace h2p
