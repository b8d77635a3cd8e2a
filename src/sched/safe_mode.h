/**
 * @file
 * Degraded-mode cooling control (fault tolerance for Sec. V-B).
 *
 * The cooling optimizer plans against a model; in a real deployment
 * its inputs come from sensors that drift, stick and drop out, and
 * its flow commands go to pumps that wear out. The SafetyMonitor
 * closes that gap per circulation:
 *
 *  - Range check: a die-temperature reading outside the plausible
 *    window is garbage — stop trusting the model, fall back to the
 *    coldest/highest-flow setting.
 *  - Rate-of-change check: a reading that moved faster than physics
 *    allows is suspect — keep optimizing, but with the T_safe margin
 *    widened by margin_c.
 *  - Staleness/dropout: no reading at all is treated like an
 *    out-of-range reading.
 *  - Flow-delivery check: when the measured loop flow falls short of
 *    the command by more than flow_tolerance, the pump is failing and
 *    the planned operating point is fiction — fall back.
 *
 * Each trigger holds for hold_steps intervals after the condition
 * clears so the controller does not flap at a fault boundary.
 */

#ifndef H2P_SCHED_SAFE_MODE_H_
#define H2P_SCHED_SAFE_MODE_H_

#include <cstddef>
#include <vector>

#include "util/bytes.h"

namespace h2p {
namespace sched {

/** Degraded-mode controller configuration. */
struct SafeModeParams
{
    /** Master switch; off reproduces the paper's fault-free control. */
    bool enabled = false;
    /** Extra T_safe margin when a reading is suspect, C. */
    double margin_c = 3.0;
    /** Lowest plausible die-temperature reading, C. */
    double min_plausible_c = 5.0;
    /** Highest plausible die-temperature reading, C. */
    double max_plausible_c = 110.0;
    /** Fastest plausible die-temperature change, C/s (~15 C/step). */
    double max_rate_c_per_s = 0.05;
    /** Relative delivered-vs-commanded flow mismatch tolerated. */
    double flow_tolerance = 0.15;
    /** Intervals a trigger keeps holding after the condition clears. */
    size_t hold_steps = 3;
    /**
     * Per-server thermal-trip watchdog (fault::ThermalTripWatchdog):
     * throttles a server whose die exceeds the vendor maximum.
     */
    bool watchdog_enabled = true;
    /** Utilization-cap factor applied on a thermal trip. */
    double throttle_factor = 0.5;
    /** Margin below the trip point before the cap releases, C. */
    double recovery_margin_c = 5.0;
    /** Cap released per safe interval (fraction of full util). */
    double release_step = 0.1;

    /** Names every field once: INI keys ([safe_mode]) and digests. */
    template <typename V>
    void visit(V &v)
    {
        v("enabled", enabled);
        v("margin_c", margin_c);
        v("min_plausible_c", min_plausible_c);
        v("max_plausible_c", max_plausible_c);
        v("max_rate_c_per_s", max_rate_c_per_s);
        v("flow_tolerance", flow_tolerance);
        v("hold_steps", hold_steps);
        v("watchdog_enabled", watchdog_enabled);
        v("throttle_factor", throttle_factor);
        v("recovery_margin_c", recovery_margin_c);
        v("release_step", release_step);
    }
};

/** One sensor sample as the controller sees it. */
struct SensorReading
{
    double value = 0.0;
    /** False on dropout: the sample never arrived. */
    bool valid = true;
};

/** What the scheduler should do for one circulation this interval. */
enum class SafeModeAction {
    /** Trust the model; run the normal Sec. V-B optimization. */
    Normal,
    /** Optimize with T_safe lowered by SafeModeParams::margin_c. */
    WidenMargin,
    /** Abandon harvesting: coldest inlet at the highest flow. */
    ColdFallback,
};

/**
 * Save or load one action as a u32; loading rejects values outside
 * the enum.
 */
void visitAction(util::Archive &ar, SafeModeAction &action);

/**
 * Per-circulation sensor-plausibility supervisor and the owner of the
 * run's sensing loop. The controller acts on the previous interval's
 * measurements, so the monitor is fed, then assessed:
 *
 *  - after an interval is evaluated, feed() stores each circulation's
 *    die and flow readings and the flow the controller commanded;
 *  - at the start of the next interval, assess() judges those stored
 *    readings and sets the circulation's action.
 *
 * actions() is the one per-circulation action vector the scheduler
 * reads (control::ControlContext::actions points at it). Every action
 * starts Normal: the first interval has no readings to judge, so the
 * caller assesses only once a reading has been fed.
 */
class SafetyMonitor
{
  public:
    SafetyMonitor(size_t num_circulations,
                  const SafeModeParams &params = {});

    /**
     * Store one circulation's measurements of the interval just
     * evaluated; the next assess() of @p circ judges them.
     *
     * @param circ Circulation index.
     * @param die_c Hottest-die temperature reading.
     * @param flow_lph Measured delivered loop flow, L/H.
     * @param commanded_flow_lph Flow the controller commanded, L/H.
     */
    void feed(size_t circ, const SensorReading &die_c,
              const SensorReading &flow_lph, double commanded_flow_lph);

    /**
     * Assess circulation @p circ on the readings last fed and set its
     * action for this interval.
     *
     * @param circ Circulation index.
     * @param dt_s Time since the previous reading, seconds.
     * @return The circulation's new action.
     */
    SafeModeAction assess(size_t circ, double dt_s);

    /** Latest action per circulation. */
    const std::vector<SafeModeAction> &actions() const { return actions_; }

    /** Circulations currently not in Normal mode. */
    size_t numDegraded() const;

    /**
     * Save or load the full mutable state, one record per
     * circulation: last plausible die reading, hold counter, held and
     * current action, then the readings last fed.
     */
    void visit(util::Archive &ar);

    const SafeModeParams &params() const { return params_; }

  private:
    struct CircState
    {
        /** Rate-check baseline: the last plausible die reading. */
        double last_die_c = 0.0;
        bool has_last = false;
        size_t hold = 0;
        SafeModeAction held = SafeModeAction::Normal;
        /** The readings last fed, judged by the next assess(). */
        SensorReading die;
        SensorReading flow;
        double commanded_flow_lph = 0.0;
    };

    SafeModeParams params_;
    std::vector<CircState> circs_;
    std::vector<SafeModeAction> actions_;
};

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_SAFE_MODE_H_
