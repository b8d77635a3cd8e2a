/**
 * @file
 * The autonomous thermal balancer (EOS-style) with drain mode.
 *
 * Modeled on the EOS balancing system: a central view computes, for
 * every circulation (the scheduling group), the average utilization
 * and its deviation from the cluster mean, plus the measured thermal
 * headroom (T_safe - T_max) and harvested TEG power fed back from the
 * previous interval's evaluation. Per-circulation balancer logic then
 * pulls bounded job migrations each interval — migration-limited
 * flattening within a circulation (a server above its loop's mean
 * sheds at most max_move per interval, toward the mean, and a server
 * below it gains at most max_move) and hottest-to-coolest pulls
 * across circulations — until the utilization deviations converge
 * under a hysteresis band. A circulation's **drain mode** evacuates
 * its work to healthy circulations: it engages when the safety
 * monitor falls back to ColdFallback for the circulation or its pump
 * fails outright (coordinating with safe mode, which keeps the
 * drained loop at maximum cooling while it empties), or on operator
 * request through the service `drain` verb.
 *
 * Every move is a pairwise transfer (one donor, one receiver), so
 * total work is conserved to floating-point rounding; nothing is
 * clamped away. The stage is fully deterministic given its inputs
 * and serialized state, keeping balancer runs bit-identical across
 * thread counts and checkpoint/resume.
 */

#ifndef H2P_CONTROL_THERMAL_BALANCER_H_
#define H2P_CONTROL_THERMAL_BALANCER_H_

#include <cstdint>
#include <vector>

#include "control/control_stage.h"
#include "obs/observability.h"

namespace h2p {
namespace control {

/** [balancer] configuration. All result-relevant (fingerprinted). */
struct BalancerParams
{
    /**
     * Run the autonomous balancer in place of the one-shot
     * BalanceStage when the session policy is TegLoadBalance.
     * Disabled, the canonical pipelines run unchanged.
     */
    bool enabled = false;
    /**
     * Per-server migration cap per interval (utilization): each
     * server sheds or gains at most this much per balancing pass
     * (within a circulation, also never past the circulation's mean)
     * and per cross-circulation pull.
     */
    double max_move = 0.10;
    /**
     * Convergence band on the per-circulation average-utilization
     * deviation: below it the balancer idles (hysteresis against
     * migration churn).
     */
    double hysteresis = 0.02;
    /**
     * Utilization evacuated per draining server per interval; at 0.25
     * a fully loaded server empties in four intervals.
     */
    double drain_rate = 0.25;
    /** Cross-circulation pull rounds per interval (bounded work). */
    size_t max_pulls = 8;
    /** Engage drain mode when safe mode falls back to ColdFallback. */
    bool drain_on_fallback = true;
    /**
     * Receiver eligibility: once headroom feedback exists, a
     * circulation whose measured headroom (T_safe - T_max) is at or
     * below this floor accepts no migrated work. The optimizer
     * deliberately plans right up to T_safe, so healthy loops hover
     * around zero headroom (small transient overshoot included); the
     * default only fences off loops running well past the safety
     * target, which safe mode is already falling back on.
     */
    double headroom_floor_c = -2.0;
    /**
     * Convergence watchdog: after this many consecutive intervals out
     * of the hysteresis band the run fails with a config_error
     * (RunError), so supervised sweeps quarantine non-converging
     * balancer points with exact step/stage attribution. 0 disables.
     */
    size_t max_stale_steps = 0;

    /** Names every field once: INI keys ([balancer]) and digests. */
    template <typename V>
    void visit(V &v)
    {
        v("enabled", enabled);
        v("max_move", max_move);
        v("hysteresis", hysteresis);
        v("drain_rate", drain_rate);
        v("max_pulls", max_pulls);
        v("drain_on_fallback", drain_on_fallback);
        v("headroom_floor_c", headroom_floor_c);
        v("max_stale_steps", max_stale_steps);
    }
};

/** Balancing posture of one circulation. */
enum class CircMode : uint8_t
{
    Idle = 0,      ///< Within the hysteresis band; no moves.
    Balancing = 1, ///< Actively flattening/migrating.
    Draining = 2,  ///< Evacuating all work to healthy circulations.
};

/** Stable lower-case name ("idle", "balancing", "draining"). */
const char *toString(CircMode mode);

/**
 * One row of the central view (the EOS `group ls` analog): per
 * circulation, the load statistics the balancer acted on this
 * interval and the measured feedback it will act on next.
 */
struct CirculationView
{
    /** Servers in the circulation. */
    size_t servers = 0;
    /** Average utilization after this interval's moves. */
    double avg_util = 0.0;
    /** avg_util minus the non-draining cluster mean. */
    double dev_util = 0.0;
    /** Measured thermal headroom T_safe - T_max, C (0 until fed). */
    double headroom_c = 0.0;
    /** Harvested TEG power last interval, W (0 until fed). */
    double teg_w = 0.0;
    CircMode mode = CircMode::Idle;
    /** Cumulative utilization evacuated while draining. */
    double drained_util = 0.0;
};

/** Balancer counters and the current convergence verdict. */
struct BalancerStats
{
    /** Cross-circulation transfers (drain + pull moves). */
    uint64_t migrations = 0;
    /** Within-circulation limited-balance transfers. */
    uint64_t local_moves = 0;
    /** Cross-circulation pull rounds executed. */
    uint64_t pulls = 0;
    uint64_t drains_started = 0;
    uint64_t drains_completed = 0;
    /** Circulations currently draining. */
    size_t active_drains = 0;
    /** Largest |deviation| across non-draining circulations. */
    double max_abs_dev = 0.0;
    /** max_abs_dev within the hysteresis band this interval? */
    bool converged = false;
    /** Consecutive intervals out of the band (watchdog input). */
    uint64_t stale_steps = 0;
};

/** See the file comment. Stateful: declared state is checkpointed. */
class ThermalBalancer : public ControlStage
{
  public:
    /** Checkpoint key of this stage. */
    static constexpr const char *kName = "thermal_balancer";

    ThermalBalancer(const BalancerParams &params,
                    const cluster::Datacenter &dc, double t_safe_c);

    const char *name() const override { return kName; }
    void apply(const ControlContext &ctx,
               sched::ScheduleDecision &decision) override;
    void observe(const ControlContext &ctx,
                 const cluster::DatacenterState &state) override;
    bool stateful() const override { return true; }
    void visitState(util::Archive &ar) override;

    /**
     * Latch an operator drain request for circulation @p circ; it
     * engages at the next interval and holds until cancelled.
     */
    void requestDrain(size_t circ);

    /** Release an operator drain request (fault-driven drains hold). */
    void cancelDrain(size_t circ);

    /** The central view, one row per circulation. */
    const std::vector<CirculationView> &view() const { return view_; }

    const BalancerStats &stats() const { return stats_; }

    const BalancerParams &params() const { return params_; }

  private:
    /** Emit a balancer event (no-op when obs is off). */
    void emitEvent(const ControlContext &ctx, size_t circ,
                   const char *what, double amount) const;

    BalancerParams params_;
    const cluster::Datacenter &dc_;
    double t_safe_c_;

    // Fixed layout, precomputed at construction.
    std::vector<size_t> offsets_;
    std::vector<size_t> sizes_;

    // ---- Cross-interval state (serialized). ----
    /**
     * The central view is the per-circulation state: each row's mode,
     * drained utilization and fed-back headroom and TEG power are
     * what apply() acts on next, and its averages are what it
     * published last. visitState() saves every row field but
     * `servers`, which is layout.
     */
    std::vector<CirculationView> view_;
    std::vector<uint8_t> manual_drain_;
    /** Drain already reported complete (edge detector). */
    std::vector<uint8_t> drain_empty_;
    /** Has observe() fed back headroom yet? */
    bool have_feedback_ = false;
    BalancerStats stats_;

    // ---- Obs handles, resolved on first use (not state). ----
    bool obs_ready_ = false;
    obs::Gauge gauge_dev_;
    obs::Gauge gauge_drains_;
    obs::Gauge gauge_converged_;
    obs::Counter ctr_migrations_;
    obs::Counter ctr_local_;
    obs::Counter ctr_pulls_;
    obs::SpanRegistry::SpanId span_apply_{};
};

} // namespace control
} // namespace h2p

#endif // H2P_CONTROL_THERMAL_BALANCER_H_
