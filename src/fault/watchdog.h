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
 * Call shape() before scheduling an interval and observe() with the
 * resulting die temperatures after evaluating it.
 */
class ThermalTripWatchdog
{
  public:
    ThermalTripWatchdog(size_t num_servers,
                        const WatchdogParams &params = {});

    /**
     * Shape the requested utilizations for this interval: deferred
     * backlog is re-added on top of the request, the server absorbs
     * at most 100 % (and at most its cap), and the shortfall stays
     * queued for later intervals.
     *
     * @param requested Trace utilizations for this interval.
     * @param dt_s Interval length, seconds (backlog accounting).
     */
    std::vector<double> shape(const std::vector<double> &requested,
                              double dt_s);

    /**
     * In-place twin of shape(): rewrites @p utils with the applied
     * utilizations, allocating nothing.
     */
    void shapeInPlace(std::vector<double> &utils, double dt_s);

    /** Update the caps from the interval's true die temperatures. */
    void observe(const std::vector<double> &die_temp_c);

    /** Trip events so far (untripped -> tripped transitions). */
    size_t tripEvents() const { return trip_events_; }

    /** Servers currently throttled (cap < 1). */
    size_t numThrottled() const;

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
     * requires the server count this watchdog was built with.
     */
    void visit(util::Archive &ar);

    const WatchdogParams &params() const { return params_; }

  private:
    WatchdogParams params_;
    std::vector<double> cap_;
    std::vector<double> backlog_; // utilization-steps of deferred work
    std::vector<bool> tripped_;
    size_t trip_events_ = 0;
    double deferred_s_ = 0.0;
};

} // namespace fault
} // namespace h2p

#endif // H2P_FAULT_WATCHDOG_H_
