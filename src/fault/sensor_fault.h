/**
 * @file
 * Sensor-fault channel model.
 *
 * The degraded-mode controller (sched/safe_mode.h) consumes die
 * temperature and loop-flow readings; this model corrupts the true
 * values on their way to it. Three classic failure modes:
 *
 *  - Stuck-at: the channel latches the first value it sees inside the
 *    fault window and repeats it (a frozen ADC or a detached probe in
 *    still air).
 *  - Drift: the reading walks away from the truth at a constant rate
 *    (reference-voltage aging, scale build-up on a thermowell).
 *  - Dropout: no sample arrives at all.
 */

#ifndef H2P_FAULT_SENSOR_FAULT_H_
#define H2P_FAULT_SENSOR_FAULT_H_

#include "sched/safe_mode.h"
#include "util/bytes.h"

namespace h2p {
namespace fault {

/** The failure modes a sensor channel can enter. */
enum class SensorFaultKind { None, Stuck, Drift, Dropout };

/** One sensor-fault episode on a channel. */
struct SensorFaultWindow
{
    SensorFaultKind kind = SensorFaultKind::None;
    /** Fault onset on the trace timeline, seconds. */
    double start_s = 0.0;
    /** Fault end, seconds; <= start means permanent. */
    double end_s = 0.0;
    /** Drift rate, C (or L/H) per hour; used by Drift only. */
    double drift_per_hour = 0.0;

    bool activeAt(double time_s) const
    {
        if (kind == SensorFaultKind::None || time_s < start_s)
            return false;
        return end_s <= start_s || time_s < end_s;
    }
};

/**
 * One measurement channel with at most one active fault window.
 * Stateful: the stuck-at mode latches the first in-window value.
 */
class SensorChannel
{
  public:
    SensorChannel() = default;

    /** Arm a fault window (replaces any previous one). */
    void setFault(const SensorFaultWindow &window);

    /** The currently armed window. */
    const SensorFaultWindow &fault() const { return fault_; }

    /** Measure @p true_value at time @p time_s through the channel. */
    sched::SensorReading read(double true_value, double time_s);

    /** Forget the latched stuck-at value (new episode). */
    void resetLatch();

    /**
     * Save or load the stuck-at latch (held flag, then value): the
     * only channel state that depends on the values read (the armed
     * window is re-derived from the fault timeline on restore).
     */
    void visitLatch(util::Archive &ar)
    {
        ar.boolean(has_latch_);
        ar.f64(latched_);
    }

  private:
    SensorFaultWindow fault_;
    double latched_ = 0.0;
    bool has_latch_ = false;
};

} // namespace fault
} // namespace h2p

#endif // H2P_FAULT_SENSOR_FAULT_H_
