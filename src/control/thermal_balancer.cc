#include "control/thermal_balancer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "util/error.h"

namespace h2p {
namespace control {

namespace {

/** Largest-value index over a slice; ties break to the lowest. */
size_t
argmaxSlice(const double *v, size_t n)
{
    size_t best = 0;
    for (size_t j = 1; j < n; ++j)
        if (v[j] > v[best])
            best = j;
    return best;
}

size_t
argminSlice(const double *v, size_t n)
{
    size_t best = 0;
    for (size_t j = 1; j < n; ++j)
        if (v[j] < v[best])
            best = j;
    return best;
}

} // namespace

const char *
toString(CircMode mode)
{
    switch (mode) {
      case CircMode::Idle:
        return "idle";
      case CircMode::Balancing:
        return "balancing";
      case CircMode::Draining:
        return "draining";
    }
    return "unknown";
}

ThermalBalancer::ThermalBalancer(const BalancerParams &params,
                                 const cluster::Datacenter &dc,
                                 double t_safe_c)
    : params_(params), dc_(dc), t_safe_c_(t_safe_c)
{
    expect(std::isfinite(params_.max_move) && params_.max_move > 0.0,
           "[balancer] max_move must be a positive finite "
           "utilization, got ", params_.max_move);
    expect(std::isfinite(params_.hysteresis) &&
               params_.hysteresis >= 0.0,
           "[balancer] hysteresis must be non-negative, got ",
           params_.hysteresis);
    expect(std::isfinite(params_.drain_rate) &&
               params_.drain_rate > 0.0,
           "[balancer] drain_rate must be a positive finite "
           "utilization, got ", params_.drain_rate);
    expect(std::isfinite(params_.headroom_floor_c),
           "[balancer] headroom_floor_c must be finite, got ",
           params_.headroom_floor_c);

    const size_t num_circ = dc_.numCirculations();
    offsets_.reserve(num_circ);
    sizes_.reserve(num_circ);
    view_.resize(num_circ);
    size_t offset = 0;
    for (size_t c = 0; c < num_circ; ++c) {
        offsets_.push_back(offset);
        sizes_.push_back(dc_.circulationSize(c));
        view_[c].servers = sizes_.back();
        offset += sizes_.back();
    }
    manual_drain_.assign(num_circ, 0);
    drain_empty_.assign(num_circ, 0);
}

void
ThermalBalancer::requestDrain(size_t circ)
{
    expect(circ < sizes_.size(), "circulation ", circ,
           " out of range (", sizes_.size(), " circulations)");
    manual_drain_[circ] = 1;
}

void
ThermalBalancer::cancelDrain(size_t circ)
{
    expect(circ < sizes_.size(), "circulation ", circ,
           " out of range (", sizes_.size(), " circulations)");
    manual_drain_[circ] = 0;
}

void
ThermalBalancer::emitEvent(const ControlContext &ctx, size_t circ,
                           const char *what, double amount) const
{
    if (ctx.obs != nullptr)
        ctx.obs->events().append(static_cast<double>(ctx.step) * ctx.dt_s,
                                 static_cast<long>(ctx.step), "balancer",
                                 "circ" + std::to_string(circ), what,
                                 {{"amount", amount}});
}

void
ThermalBalancer::apply(const ControlContext &ctx,
                       sched::ScheduleDecision &decision)
{
    const size_t num_circ = sizes_.size();
    expect(decision.utils.size() == dc_.numServers(),
           "balancer expects ", dc_.numServers(),
           " utilizations, got ", decision.utils.size());

    using ObsClock = std::chrono::steady_clock;
    ObsClock::time_point t0;
    if (ctx.obs != nullptr) {
        if (!obs_ready_) {
            obs::MetricsRegistry &m = ctx.obs->metrics();
            gauge_dev_ = m.gauge("balancer.max_abs_dev");
            gauge_drains_ = m.gauge("balancer.active_drains");
            gauge_converged_ = m.gauge("balancer.converged");
            ctr_migrations_ = m.counter("balancer.migrations");
            ctr_local_ = m.counter("balancer.local_moves");
            ctr_pulls_ = m.counter("balancer.pulls");
            span_apply_ = ctx.obs->spans().id("balancer.apply");
            obs_ready_ = true;
        }
        t0 = ObsClock::now();
    }

    const uint64_t mig0 = stats_.migrations;
    const uint64_t local0 = stats_.local_moves;
    const uint64_t pulls0 = stats_.pulls;
    double *utils = decision.utils.data();

    // ---- Central view, part 1: drain posture. A circulation drains
    // when the safety monitor fell back to maximum cooling for it,
    // its pump failed outright, or an operator latched a drain
    // request; it returns to normal balancing when every trigger
    // clears.
    for (size_t c = 0; c < num_circ; ++c) {
        bool fault_drain = false;
        if (params_.drain_on_fallback && ctx.actions != nullptr &&
            (*ctx.actions)[c] == sched::SafeModeAction::ColdFallback)
            fault_drain = true;
        if (ctx.health != nullptr &&
            c < ctx.health->circulations.size() &&
            ctx.health->circulations[c].pump_flow_factor <= 0.0)
            fault_drain = true;

        const bool want = manual_drain_[c] != 0 || fault_drain;
        CirculationView &row = view_[c];
        const bool draining = row.mode == CircMode::Draining;
        if (want && !draining) {
            row.mode = CircMode::Draining;
            drain_empty_[c] = 0;
            ++stats_.drains_started;
            emitEvent(ctx, c, "drain_start", 0.0);
        } else if (!want && draining) {
            row.mode = CircMode::Idle;
            drain_empty_[c] = 0;
            emitEvent(ctx, c, "drain_end", row.drained_util);
        }
    }

    // ---- Drain execution: every draining server sheds up to
    // drain_rate per interval into healthy circulations, filled in
    // headroom order (coolest loops first once feedback exists).
    // Receivers cap at full utilization; work that finds no taker
    // stays on its donor, so the total is conserved.
    std::vector<size_t> recv_circs;
    recv_circs.reserve(num_circ);
    for (size_t c = 0; c < num_circ; ++c) {
        if (view_[c].mode == CircMode::Draining)
            continue;
        if (have_feedback_ &&
            view_[c].headroom_c <= params_.headroom_floor_c)
            continue;
        recv_circs.push_back(c);
    }
    if (have_feedback_)
        std::stable_sort(recv_circs.begin(), recv_circs.end(),
                         [this](size_t a, size_t b) {
                             return view_[a].headroom_c >
                                    view_[b].headroom_c;
                         });

    bool any_draining = false;
    for (size_t c = 0; c < num_circ; ++c)
        if (view_[c].mode == CircMode::Draining)
            any_draining = true;

    if (any_draining && !recv_circs.empty()) {
        // Receiver cursor over (sorted circ, server) pairs.
        size_t rc = 0, rs = 0;
        auto receiverFull = [&]() { return rc >= recv_circs.size(); };
        auto advance = [&]() {
            ++rs;
            while (rc < recv_circs.size() &&
                   rs >= sizes_[recv_circs[rc]]) {
                ++rc;
                rs = 0;
            }
        };
        // Position the cursor on the first receiver.
        if (!receiverFull() && sizes_[recv_circs[rc]] == 0)
            advance();

        for (size_t d = 0; d < num_circ && !receiverFull(); ++d) {
            if (view_[d].mode != CircMode::Draining)
                continue;
            for (size_t j = 0; j < sizes_[d] && !receiverFull();
                 ++j) {
                double &u = utils[offsets_[d] + j];
                if (u <= 0.0)
                    continue;
                double remaining = std::min(u, params_.drain_rate);
                while (remaining > 0.0 && !receiverFull()) {
                    double &v =
                        utils[offsets_[recv_circs[rc]] + rs];
                    double cap = 1.0 - v;
                    if (cap <= 0.0) {
                        advance();
                        continue;
                    }
                    double take = std::min(remaining, cap);
                    u -= take;
                    v += take;
                    view_[d].drained_util += take;
                    remaining -= take;
                    ++stats_.migrations;
                    if (take == cap)
                        advance();
                }
            }
        }
    }
    for (size_t d = 0; d < num_circ; ++d) {
        if (view_[d].mode != CircMode::Draining)
            continue;
        bool empty = true;
        for (size_t j = 0; j < sizes_[d]; ++j)
            if (utils[offsets_[d] + j] > 0.0)
                empty = false;
        if (empty && drain_empty_[d] == 0) {
            drain_empty_[d] = 1;
            ++stats_.drains_completed;
            emitEvent(ctx, d, "drain_complete", view_[d].drained_util);
        }
    }

    // ---- Within-circulation limited balancing: when a healthy
    // circulation's spread (max above mean) exceeds the hysteresis
    // band, flatten it with pairwise capped transfers: a donor above
    // the mean sheds at most min(u - mean, max_move), a receiver below
    // it gains at most min(mean - u, max_move), and donor and receiver
    // move the identical amount so no work is ever clamped away.
    for (size_t c = 0; c < num_circ; ++c) {
        CircMode &mode = view_[c].mode;
        if (mode == CircMode::Draining)
            continue;
        const size_t n = sizes_[c];
        double *group = utils + offsets_[c];
        double sum = 0.0, maxu = group[0];
        for (size_t j = 0; j < n; ++j) {
            sum += group[j];
            maxu = std::max(maxu, group[j]);
        }
        const double mean = sum / static_cast<double>(n);
        if (maxu - mean <= params_.hysteresis) {
            mode = CircMode::Idle;
            continue;
        }
        mode = CircMode::Balancing;

        size_t r = 0;
        double allow = 0.0;
        bool allow_set = false;
        for (size_t dnr = 0; dnr < n; ++dnr) {
            if (group[dnr] <= mean)
                continue;
            double give =
                std::min(group[dnr] - mean, params_.max_move);
            while (give > 0.0 && r < n) {
                if (!allow_set) {
                    if (group[r] < mean) {
                        allow = std::min(mean - group[r],
                                         params_.max_move);
                        allow_set = true;
                    } else {
                        ++r;
                        continue;
                    }
                }
                if (allow <= 0.0) {
                    ++r;
                    allow_set = false;
                    continue;
                }
                double take = std::min(give, allow);
                group[dnr] -= take;
                group[r] += take;
                allow -= take;
                give -= take;
                ++stats_.local_moves;
            }
        }
    }

    // ---- Central view, part 2: per-circulation averages and the
    // cross-circulation pull loop. Each round moves one bounded
    // transfer from the hottest server of the highest-deviation
    // circulation to the coolest server of the lowest-deviation
    // eligible receiver, EOS-style, until the spread between them
    // falls inside the band.
    std::vector<double> circ_sum(num_circ, 0.0);
    double total_sum = 0.0;
    double total_n = 0.0;
    for (size_t c = 0; c < num_circ; ++c) {
        double s = 0.0;
        for (size_t j = 0; j < sizes_[c]; ++j)
            s += utils[offsets_[c] + j];
        circ_sum[c] = s;
        if (view_[c].mode != CircMode::Draining) {
            total_sum += s;
            total_n += static_cast<double>(sizes_[c]);
        }
    }

    for (size_t round = 0;
         round < params_.max_pulls && total_n > 0.0; ++round) {
        size_t hot = num_circ, cold = num_circ;
        double hot_avg = 0.0, cold_avg = 0.0;
        for (size_t c = 0; c < num_circ; ++c) {
            if (view_[c].mode == CircMode::Draining)
                continue;
            double avg = circ_sum[c] / static_cast<double>(sizes_[c]);
            if (hot == num_circ || avg > hot_avg) {
                hot = c;
                hot_avg = avg;
            }
            bool eligible =
                !have_feedback_ ||
                view_[c].headroom_c > params_.headroom_floor_c;
            if (eligible && (cold == num_circ || avg < cold_avg)) {
                cold = c;
                cold_avg = avg;
            }
        }
        if (hot == num_circ || cold == num_circ || hot == cold)
            break;
        if (hot_avg - cold_avg <= 2.0 * params_.hysteresis)
            break;

        double *hgroup = utils + offsets_[hot];
        double *cgroup = utils + offsets_[cold];
        size_t hs = argmaxSlice(hgroup, sizes_[hot]);
        size_t cs = argminSlice(cgroup, sizes_[cold]);
        double delta = std::min(
            {params_.max_move, hgroup[hs], 1.0 - cgroup[cs]});
        if (delta <= 0.0)
            break;
        hgroup[hs] -= delta;
        cgroup[cs] += delta;
        circ_sum[hot] -= delta;
        circ_sum[cold] += delta;
        ++stats_.pulls;
        ++stats_.migrations;
    }

    // ---- Convergence verdict and the published view.
    double mean_all = total_n > 0.0 ? total_sum / total_n : 0.0;
    double max_abs_dev = 0.0;
    size_t active_drains = 0;
    for (size_t c = 0; c < num_circ; ++c) {
        CirculationView &row = view_[c];
        row.avg_util = circ_sum[c] / static_cast<double>(sizes_[c]);
        row.dev_util = row.avg_util - mean_all;
        if (row.mode != CircMode::Draining)
            max_abs_dev = std::max(max_abs_dev, std::abs(row.dev_util));
        else
            ++active_drains;
    }
    stats_.max_abs_dev = max_abs_dev;
    stats_.converged = max_abs_dev <= params_.hysteresis;
    stats_.active_drains = active_drains;
    if (stats_.converged)
        stats_.stale_steps = 0;
    else
        ++stats_.stale_steps;

    if (ctx.obs != nullptr) {
        gauge_dev_.set(stats_.max_abs_dev);
        gauge_drains_.set(static_cast<double>(active_drains));
        gauge_converged_.set(stats_.converged ? 1.0 : 0.0);
        ctr_migrations_.add(stats_.migrations - mig0);
        ctr_local_.add(stats_.local_moves - local0);
        ctr_pulls_.add(stats_.pulls - pulls0);
        obs::SpanRegistry::record(span_apply_, ObsClock::now() - t0);
    }

    if (params_.max_stale_steps > 0 &&
        stats_.stale_steps > params_.max_stale_steps)
        failRun(FailureKind::ConfigError, ctx.step, "balancer",
                "balancer failed to converge: max |deviation| ",
                stats_.max_abs_dev, " stayed above the hysteresis band ",
                params_.hysteresis, " for ", stats_.stale_steps,
                " consecutive intervals (max_stale_steps=",
                params_.max_stale_steps,
                "); the migration caps cannot reach the band on this "
                "workload");
}

void
ThermalBalancer::observe(const ControlContext &ctx,
                         const cluster::DatacenterState &state)
{
    (void)ctx;
    const size_t num_circ = sizes_.size();
    H2P_ASSERT(state.circulations.size() == num_circ,
               "balancer feedback shape mismatch");
    for (size_t c = 0; c < num_circ; ++c) {
        view_[c].headroom_c =
            t_safe_c_ - state.circulations[c].max_die_c;
        view_[c].teg_w = state.circulations[c].teg_power_w;
    }
    have_feedback_ = true;
}

void
ThermalBalancer::visitState(util::Archive &ar)
{
    const size_t num_circ = sizes_.size();
    uint64_t saved = num_circ;
    ar.u64(saved);
    expect(saved == num_circ, "balancer state carries ", saved,
           " circulations; this system has ", num_circ);
    for (size_t c = 0; c < num_circ; ++c) {
        CirculationView &row = view_[c];
        uint8_t mode = static_cast<uint8_t>(row.mode);
        ar.u8(mode);
        expect(mode <= 2, "balancer state carries unknown mode ",
               static_cast<unsigned>(mode));
        row.mode = static_cast<CircMode>(mode);
        ar.u8(manual_drain_[c]);
        ar.u8(drain_empty_[c]);
        ar.f64(row.drained_util);
        ar.f64(row.headroom_c);
        ar.f64(row.teg_w);
        ar.f64(row.avg_util);
        ar.f64(row.dev_util);
    }
    ar.boolean(have_feedback_);
    ar.u64(stats_.migrations);
    ar.u64(stats_.local_moves);
    ar.u64(stats_.pulls);
    ar.u64(stats_.drains_started);
    ar.u64(stats_.drains_completed);
    ar.f64(stats_.max_abs_dev);
    ar.boolean(stats_.converged);
    ar.u64(stats_.stale_steps);
    // The drain count is not saved: it counts the draining rows.
    if (ar.loading())
        stats_.active_drains = static_cast<size_t>(
            std::count_if(view_.begin(), view_.end(),
                          [](const CirculationView &row) {
                              return row.mode == CircMode::Draining;
                          }));
}

} // namespace control
} // namespace h2p
