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
 * Per-circulation sensor-plausibility supervisor. Feed it the die
 * temperature and flow readings each interval; it answers with the
 * control action the scheduler should take.
 */
class SafetyMonitor
{
  public:
    SafetyMonitor(size_t num_circulations,
                  const SafeModeParams &params = {});

    /**
     * Assess one circulation's readings for this interval.
     *
     * @param circ Circulation index.
     * @param die_c Hottest-die temperature reading of the previous
     *        interval (the controller always acts on the last
     *        completed measurement).
     * @param flow_lph Measured delivered loop flow, L/H.
     * @param commanded_flow_lph Flow the controller last commanded.
     * @param dt_s Time since the previous reading, seconds.
     */
    SafeModeAction assess(size_t circ, const SensorReading &die_c,
                          const SensorReading &flow_lph,
                          double commanded_flow_lph, double dt_s);

    /** Latest action decided for circulation @p circ. */
    SafeModeAction action(size_t circ) const;

    /** Circulations currently not in Normal mode. */
    size_t numDegraded() const;

    /**
     * Save or load the full mutable state, one record per
     * circulation (last die reading, hold counter, held and current
     * action).
     */
    void visit(util::Archive &ar);

    const SafeModeParams &params() const { return params_; }

  private:
    struct CircState
    {
        double last_die_c = 0.0;
        bool has_last = false;
        size_t hold = 0;
        SafeModeAction held = SafeModeAction::Normal;
        SafeModeAction action = SafeModeAction::Normal;
    };

    SafeModeParams params_;
    std::vector<CircState> circs_;
};

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_SAFE_MODE_H_
