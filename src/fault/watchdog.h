/**
 * @file
 * Per-server thermal-trip watchdog.
 *
 * The last line of defence under faults: when a die exceeds the
 * vendor maximum (the CPU's own on-die sensor — independent of the
 * loop instrumentation the optimizer reads), the watchdog throttles
 * that server's utilization, and releases the cap gradually once the
 * die has cooled back below the trip point by a recovery margin.
 *
 * Throttled work is not discarded: it is deferred into a per-server
 * backlog that is fed back into the requested utilization of later
 * intervals (capped at 100 %), mirroring how a real cluster's queue
 * backs up behind a thermally-limited node. Backlog still unserved at
 * the end of a run is the work genuinely lost to the fault.
 */

#ifndef H2P_FAULT_WATCHDOG_H_
#define H2P_FAULT_WATCHDOG_H_

#include <cstddef>
#include <vector>

#include "cluster/datacenter.h"
#include "util/bytes.h"

namespace h2p {
namespace fault {

/** Watchdog tuning. */
struct WatchdogParams
{
    /** Die temperature that trips the throttle, C (vendor maximum). */
    double trip_c = 78.9;
    /** Cap multiplier applied on a trip. */
    double throttle_factor = 0.5;
    /** Die must cool this far below trip_c before release starts, C. */
    double recovery_margin_c = 5.0;
    /** Cap released per recovered interval (fraction of full util). */
    double release_step = 0.1;
    /** The cap never throttles below this utilization. */
    double min_cap = 0.1;
};

/**
 * Tracks one utilization cap and one work backlog per server.
 * Call shapeInPlace() before scheduling an interval and observe()
 * with the evaluated state after it.
 *
 * Per-step work scales with the servers the watchdog is acting on,
 * not with the fleet: a sorted active set holds every server with
 * cap < 1, a backlog or a trip flag. A quiet server (cap 1, no
 * backlog) passes shaping unchanged and can only change in observe()
 * by tripping, which needs its circulation's hottest die above
 * trip_c.
 */
class ThermalTripWatchdog
{
  public:
    ThermalTripWatchdog(size_t num_servers,
                        const WatchdogParams &params = {});

    /**
     * Shape the requested utilizations for this interval, in place:
     * deferred backlog is re-added on top of the request, the server
     * absorbs at most 100 % (and at most its cap), and the shortfall
     * stays queued for later intervals. Only active servers are
     * touched: every request must lie in [0, 1], as a
     * UtilizationTrace's do, so that a quiet server's request passes
     * unchanged.
     *
     * @param utils Trace utilizations for this interval, rewritten
     *     with the applied ones.
     * @param dt_s Interval length, seconds (backlog accounting).
     */
    void shapeInPlace(std::vector<double> &utils, double dt_s);

    /**
     * Update the caps from the interval's true die temperatures
     * (@p state's server block). New trips are searched only in the
     * circulations whose max_die_c exceeds trip_c.
     */
    void observe(const cluster::DatacenterState &state);

    /** Trip events so far (untripped -> tripped transitions). */
    size_t tripEvents() const { return trip_events_; }

    /** Servers currently throttled (cap < 1). */
    size_t numThrottled() const { return throttled_; }

    /** Work deferred over the whole run so far, server-seconds. */
    double deferredWorkSeconds() const { return deferred_s_; }

    /** Work still queued behind throttled servers, server-seconds. */
    double backlogSeconds(double dt_s) const;

    /** Current cap of server @p i. */
    double cap(size_t i) const;

    /**
     * Save or load the complete mutable state (server count, caps,
     * backlogs, trip flags, trip events, deferred work) for
     * deterministic checkpoint/restore of a run in progress. Loading
     * requires the server count this watchdog was built with and
     * rebuilds the active set from the loaded state.
     */
    void visit(util::Archive &ar);

    const WatchdogParams &params() const { return params_; }

  private:
    bool quiet(size_t i) const
    {
        return cap_[i] == 1.0 && backlog_[i] == 0.0 && !tripped_[i];
    }

    WatchdogParams params_;
    std::vector<double> cap_;
    std::vector<double> backlog_; // utilization-steps of deferred work
    std::vector<bool> tripped_;
    size_t trip_events_ = 0;
    double deferred_s_ = 0.0;

    // Derived from cap_/backlog_/tripped_ (rebuilt on load, never
    // saved): the non-quiet servers in index order, so shaping sums
    // deferred_s_ in the same order as a full scan; and how many of
    // them have cap < 1.
    std::vector<size_t> active_;
    size_t throttled_ = 0;
    // observe() scratch: new trips, and their merge with active_.
    std::vector<size_t> fresh_;
    std::vector<size_t> merged_;
};

} // namespace fault
} // namespace h2p

#endif // H2P_FAULT_WATCHDOG_H_
