#include "sched/safe_mode.h"

#include <cmath>

#include "util/error.h"

namespace h2p {
namespace sched {

void
visitAction(util::Archive &ar, SafeModeAction &action)
{
    uint32_t raw = static_cast<uint32_t>(action);
    ar.u32(raw);
    expect(raw <= 2, "checkpoint carries an unknown safe-mode action");
    action = static_cast<SafeModeAction>(raw);
}

SafetyMonitor::SafetyMonitor(size_t num_circulations,
                             const SafeModeParams &params)
    : params_(params), circs_(num_circulations),
      actions_(num_circulations, SafeModeAction::Normal)
{
    expect(num_circulations >= 1, "monitor needs circulations");
    expect(params.margin_c >= 0.0, "margin must be non-negative");
    expect(params.max_plausible_c > params.min_plausible_c,
           "plausible die-temperature window is empty");
    expect(params.max_rate_c_per_s > 0.0,
           "rate-of-change limit must be positive");
    expect(params.flow_tolerance > 0.0,
           "flow tolerance must be positive");
}

void
SafetyMonitor::feed(size_t circ, const SensorReading &die_c,
                    const SensorReading &flow_lph,
                    double commanded_flow_lph)
{
    expect(circ < circs_.size(), "circulation ", circ, " out of range");
    CircState &st = circs_[circ];
    st.die = die_c;
    st.flow = flow_lph;
    st.commanded_flow_lph = commanded_flow_lph;
}

SafeModeAction
SafetyMonitor::assess(size_t circ, double dt_s)
{
    expect(circ < circs_.size(), "circulation ", circ, " out of range");
    expect(dt_s > 0.0, "interval must be positive");
    CircState &st = circs_[circ];
    const SensorReading &die_c = st.die;
    const SensorReading &flow_lph = st.flow;
    const double commanded_flow_lph = st.commanded_flow_lph;

    SafeModeAction action = SafeModeAction::Normal;
    bool die_plausible = die_c.valid &&
                         die_c.value >= params_.min_plausible_c &&
                         die_c.value <= params_.max_plausible_c;
    if (!die_plausible) {
        // Garbage or missing reading: the controller is blind.
        action = SafeModeAction::ColdFallback;
    } else if (st.has_last &&
               std::abs(die_c.value - st.last_die_c) / dt_s >
                   params_.max_rate_c_per_s) {
        // Faster than physics: suspect, plan conservatively.
        action = SafeModeAction::WidenMargin;
    }

    if (commanded_flow_lph > 0.0 &&
        (!flow_lph.valid ||
         std::abs(flow_lph.value - commanded_flow_lph) >
             params_.flow_tolerance * commanded_flow_lph)) {
        // The pump is not delivering the plan; the chosen operating
        // point is fiction. Maximum cooling wins over margin widening.
        action = SafeModeAction::ColdFallback;
    }

    // Only plausible samples update the rate-check baseline, so a
    // burst of garbage cannot mask a later genuine excursion.
    if (die_plausible) {
        st.last_die_c = die_c.value;
        st.has_last = true;
    }

    // Hysteresis: hold a triggered action for hold_steps intervals.
    if (action != SafeModeAction::Normal) {
        st.hold = params_.hold_steps;
        st.held = action;
    } else if (st.hold > 0) {
        --st.hold;
        action = st.held;
    }
    actions_[circ] = action;
    return action;
}

void
SafetyMonitor::visit(util::Archive &ar)
{
    for (size_t c = 0; c < circs_.size(); ++c) {
        CircState &st = circs_[c];
        ar.f64(st.last_die_c);
        ar.boolean(st.has_last);
        ar.size(st.hold);
        visitAction(ar, st.held);
        visitAction(ar, actions_[c]);
        ar.f64(st.die.value);
        ar.boolean(st.die.valid);
        ar.f64(st.flow.value);
        ar.boolean(st.flow.valid);
        ar.f64(st.commanded_flow_lph);
    }
}

size_t
SafetyMonitor::numDegraded() const
{
    size_t n = 0;
    for (SafeModeAction a : actions_)
        if (a != SafeModeAction::Normal)
            ++n;
    return n;
}

} // namespace sched
} // namespace h2p
