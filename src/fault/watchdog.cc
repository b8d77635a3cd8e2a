#include "fault/watchdog.h"

#include <algorithm>

#include "util/error.h"

namespace h2p {
namespace fault {

ThermalTripWatchdog::ThermalTripWatchdog(size_t num_servers,
                                         const WatchdogParams &params)
    : params_(params), cap_(num_servers, 1.0),
      backlog_(num_servers, 0.0), tripped_(num_servers, false)
{
    expect(num_servers >= 1, "watchdog needs servers");
    expect(params.throttle_factor > 0.0 && params.throttle_factor < 1.0,
           "throttle factor must be in (0, 1)");
    expect(params.min_cap > 0.0 && params.min_cap <= 1.0,
           "minimum cap must be in (0, 1]");
    expect(params.release_step > 0.0, "release step must be positive");
    expect(params.recovery_margin_c >= 0.0,
           "recovery margin must be non-negative");
}

std::vector<double>
ThermalTripWatchdog::shape(const std::vector<double> &requested,
                           double dt_s)
{
    expect(requested.size() == cap_.size(), "expected ", cap_.size(),
           " utilizations, got ", requested.size());
    expect(dt_s > 0.0, "interval must be positive");

    std::vector<double> applied = requested;
    shapeInPlace(applied, dt_s);
    return applied;
}

void
ThermalTripWatchdog::shapeInPlace(std::vector<double> &utils, double dt_s)
{
    expect(utils.size() == cap_.size(), "expected ", cap_.size(),
           " utilizations, got ", utils.size());
    expect(dt_s > 0.0, "interval must be positive");

    for (size_t i = 0; i < utils.size(); ++i) {
        // The queue keeps everything: the server can only absorb up
        // to 100 % (and up to its cap), the rest stays deferred.
        double want = utils[i] + backlog_[i];
        double got = std::min(want, std::min(1.0, cap_[i]));
        double deferred = want - got;
        deferred_s_ += deferred * dt_s;
        backlog_[i] = deferred;
        utils[i] = got;
    }
}

void
ThermalTripWatchdog::observe(const std::vector<double> &die_temps_c)
{
    expect(die_temps_c.size() == cap_.size(), "expected ", cap_.size(),
           " die temperatures, got ", die_temps_c.size());
    for (size_t i = 0; i < cap_.size(); ++i) {
        double t = die_temps_c[i];
        if (t > params_.trip_c) {
            if (!tripped_[i]) {
                tripped_[i] = true;
                ++trip_events_;
            }
            cap_[i] = std::max(params_.min_cap,
                               cap_[i] * params_.throttle_factor);
        } else if (t <= params_.trip_c - params_.recovery_margin_c) {
            cap_[i] = std::min(1.0, cap_[i] + params_.release_step);
            // Snap accumulated release steps to a full cap so the
            // server leaves the throttled set exactly.
            if (cap_[i] >= 1.0 - 1e-12) {
                cap_[i] = 1.0;
                tripped_[i] = false;
            }
        }
    }
}

size_t
ThermalTripWatchdog::numThrottled() const
{
    size_t n = 0;
    for (double c : cap_)
        if (c < 1.0)
            ++n;
    return n;
}

double
ThermalTripWatchdog::backlogSeconds(double dt_s) const
{
    double total = 0.0;
    for (double b : backlog_)
        total += b;
    return total * dt_s;
}

void
ThermalTripWatchdog::visit(util::Archive &ar)
{
    ar.count(cap_.size(), "checkpoint server count");
    for (double &v : cap_)
        ar.f64(v);
    for (double &v : backlog_)
        ar.f64(v);
    for (size_t i = 0; i < tripped_.size(); ++i) {
        bool tripped = tripped_[i];
        ar.boolean(tripped);
        tripped_[i] = tripped;
    }
    ar.size(trip_events_);
    ar.f64(deferred_s_);
}

double
ThermalTripWatchdog::cap(size_t i) const
{
    expect(i < cap_.size(), "server ", i, " out of range");
    return cap_[i];
}

} // namespace fault
} // namespace h2p
