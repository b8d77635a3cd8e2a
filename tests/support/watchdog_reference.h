/**
 * @file
 * Test-only reference for fault::ThermalTripWatchdog: the full-scan
 * watchdog the active-set one replaced.
 *
 * The library's watchdog updates only the servers it is acting on
 * and looks for new trips only in circulations whose hottest die is
 * above the trip point. This reference keeps the original O(fleet)
 * loops — every server shaped, every die compared, the throttled
 * count scanned — and the same checkpoint visit, so tests can prove
 * the two agree bit for bit, state and checkpoint bytes alike.
 */

#ifndef H2P_TESTS_SUPPORT_WATCHDOG_REFERENCE_H_
#define H2P_TESTS_SUPPORT_WATCHDOG_REFERENCE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/datacenter.h"
#include "fault/watchdog.h"
#include "util/bytes.h"

namespace h2p {
namespace oracle {

/** The full-scan watchdog, one loop per call over every server. */
class FullScanWatchdog
{
  public:
    FullScanWatchdog(size_t num_servers,
                     const fault::WatchdogParams &params = {})
        : params_(params), cap_(num_servers, 1.0),
          backlog_(num_servers, 0.0), tripped_(num_servers, false)
    {
    }

    void shapeInPlace(std::vector<double> &utils, double dt_s)
    {
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

    void observe(const std::vector<double> &die_temp_c)
    {
        for (size_t i = 0; i < cap_.size(); ++i) {
            double t = die_temp_c[i];
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

    size_t tripEvents() const { return trip_events_; }

    size_t numThrottled() const
    {
        size_t n = 0;
        for (double c : cap_)
            if (c < 1.0)
                ++n;
        return n;
    }

    double deferredWorkSeconds() const { return deferred_s_; }

    double backlogSeconds(double dt_s) const
    {
        double total = 0.0;
        for (double b : backlog_)
            total += b;
        return total * dt_s;
    }

    double cap(size_t i) const { return cap_[i]; }
    double backlog(size_t i) const { return backlog_[i]; }
    bool tripped(size_t i) const { return tripped_[i]; }

    void visit(util::Archive &ar)
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

  private:
    fault::WatchdogParams params_;
    std::vector<double> cap_;
    std::vector<double> backlog_; // utilization-steps of deferred work
    std::vector<bool> tripped_;
    size_t trip_events_ = 0;
    double deferred_s_ = 0.0;
};

/** The bytes @p wd's checkpoint visit writes. */
template <typename Watchdog>
std::string
visitBytes(Watchdog &wd)
{
    util::ByteWriter w;
    util::Archive ar(w);
    wd.visit(ar);
    return w.data();
}

/**
 * A datacenter state carrying only what the watchdog reads: the die
 * temperatures and circulations of @p per_circ servers (the last one
 * shorter) whose max_die_c is folded like the evaluate kernel's.
 * @p per_circ 0 means one circulation holds the fleet.
 */
inline cluster::DatacenterState
dieState(const std::vector<double> &die_temp_c, size_t per_circ = 0)
{
    cluster::DatacenterState state;
    state.servers.die_temp_c = die_temp_c;
    const size_t n = die_temp_c.size();
    if (per_circ == 0)
        per_circ = n;
    for (size_t offset = 0; offset < n; offset += per_circ) {
        cluster::CirculationState cs;
        cs.offset = offset;
        cs.count = std::min(per_circ, n - offset);
        for (size_t i = offset; i < offset + cs.count; ++i)
            cs.max_die_c = std::max(cs.max_die_c, die_temp_c[i]);
        state.circulations.push_back(cs);
    }
    return state;
}

} // namespace oracle
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_WATCHDOG_REFERENCE_H_
