#include "fault/watchdog.h"

#include <algorithm>
#include <iterator>

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
    active_.reserve(num_servers);
    fresh_.reserve(num_servers);
    merged_.reserve(num_servers);
}

void
ThermalTripWatchdog::shapeInPlace(std::vector<double> &utils, double dt_s)
{
    expect(utils.size() == cap_.size(), "expected ", cap_.size(),
           " utilizations, got ", utils.size());
    expect(dt_s > 0.0, "interval must be positive");

    // A quiet server would take got = min(u + 0, 1) = u and defer
    // +0; only the active set needs the update. Shaping clears
    // backlogs, so servers that end up quiet leave the set.
    size_t kept = 0;
    for (size_t i : active_) {
        // The queue keeps everything: the server can only absorb up
        // to 100 % (and up to its cap), the rest stays deferred.
        double want = utils[i] + backlog_[i];
        double got = std::min(want, std::min(1.0, cap_[i]));
        double deferred = want - got;
        deferred_s_ += deferred * dt_s;
        backlog_[i] = deferred;
        utils[i] = got;
        if (!quiet(i))
            active_[kept++] = i;
    }
    active_.resize(kept);
}

void
ThermalTripWatchdog::observe(const cluster::DatacenterState &state)
{
    const std::vector<double> &die = state.servers.die_temp_c;
    expect(die.size() == cap_.size(), "expected ", cap_.size(),
           " die temperatures, got ", die.size());

    // A quiet server only changes by tripping, and a circulation can
    // hold a trip only if its hottest die is above trip_c. The
    // circulations tile the fleet in order, so fresh_ comes out
    // sorted.
    fresh_.clear();
    size_t covered = 0;
    for (const cluster::CirculationState &cs : state.circulations) {
        expect(cs.offset == covered && cs.count <= die.size() - covered,
               "circulation segment [", cs.offset, ", +", cs.count,
               ") does not follow [0, ", covered, ") in ",
               die.size(), " servers");
        covered += cs.count;
        if (!(cs.max_die_c > params_.trip_c))
            continue;
        for (size_t i = cs.offset; i < covered; ++i)
            if (die[i] > params_.trip_c && quiet(i))
                fresh_.push_back(i);
    }
    expect(covered == die.size(), "circulations cover ", covered,
           " of ", die.size(), " servers");
    if (!fresh_.empty()) {
        merged_.clear();
        std::merge(active_.begin(), active_.end(), fresh_.begin(),
                   fresh_.end(), std::back_inserter(merged_));
        active_.swap(merged_);
    }

    size_t kept = 0;
    throttled_ = 0;
    for (size_t i : active_) {
        double t = die[i];
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
        if (cap_[i] < 1.0)
            ++throttled_;
        if (!quiet(i))
            active_[kept++] = i;
    }
    active_.resize(kept);
}

double
ThermalTripWatchdog::backlogSeconds(double dt_s) const
{
    // Quiet servers hold +0 backlog, which leaves an in-order sum
    // unchanged.
    double total = 0.0;
    for (size_t i : active_)
        total += backlog_[i];
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

    if (ar.loading()) {
        active_.clear();
        throttled_ = 0;
        for (size_t i = 0; i < cap_.size(); ++i) {
            if (!quiet(i))
                active_.push_back(i);
            if (cap_[i] < 1.0)
                ++throttled_;
        }
    }
}

double
ThermalTripWatchdog::cap(size_t i) const
{
    expect(i < cap_.size(), "server ", i, " out of range");
    return cap_[i];
}

} // namespace fault
} // namespace h2p
