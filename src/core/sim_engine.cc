#include "core/sim_engine.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <type_traits>

#include "core/config_io.h"
#include "core/h2p_system.h"
#include "sim/channels.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/fs.h"
#include "util/units.h"

namespace h2p {
namespace core {

namespace {

/**
 * Every number the summary reports must be finite: a NaN or inf here
 * means some model input (e.g. an absurd parasitic power) drove the
 * simulation out of its domain, and silently returning it poisons
 * every downstream table. Fail the run loudly instead. Visits
 * RunSummary::visit, so every double and vector field is checked.
 */
struct FiniteCheck
{
    template <typename T>
    void operator()(const char *field, const T &v)
    {
        if constexpr (std::is_same_v<T, std::vector<double>>) {
            for (double x : v)
                (*this)(field, x);
        } else if constexpr (std::is_same_v<T, double>) {
            if (!std::isfinite(v))
                failRun(FailureKind::NumericDivergence, RunFailure::kNoStep,
                        "summary", "run summary field `", field,
                        "' is not finite (", v,
                        "); the model diverged or a parameter is out of "
                        "range");
        }
    }
};

const char *
safeModeActionName(sched::SafeModeAction a)
{
    switch (a) {
    case sched::SafeModeAction::Normal:
        return "normal";
    case sched::SafeModeAction::WidenMargin:
        return "widen_margin";
    case sched::SafeModeAction::ColdFallback:
        return "cold_fallback";
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// Checkpoint serialization.
//
// A checkpoint file is one sealed record (util::sealRecord, the
// envelope the sweep journal uses too):
//
//   magic "H2PCKPT1" | version u32 | payload length u64 |
//   payload bytes | FNV-1a(payload) u64
//
// Doubles travel as their IEEE-754 bit patterns, never through text;
// bool is one byte (0/1), size_t counters are u64 and a string is its
// u64 length followed by its bytes. The v3 payload, in order:
//
//   header   config fingerprint u64 | trace fingerprint u64 |
//            policy u32 (0 Original, 1 LoadBalance) | resilient bool |
//            num_steps u64 | dt f64 | cursor u64
//   control  custom-control bool | stage count u64 |
//            per stateful stage: name str, state bytes str
//   sums     teg_j, cpu_j, plant_j, pump_j, teg_lost_j f64 |
//            safe_steps u64 |
//            circulation count u64 | per circulation: safe steps u64
//   channels channel count u64 | per channel, in sorted name order:
//            name str, sample count u64 (= cursor), samples f64
//   resilient runs only:
//            injector: circulation count u64 |
//                      per circulation: die latch held bool, value f64,
//                                       flow latch held bool, value f64 |
//            watchdog: server count u64, caps f64 x n, backlogs f64 x n,
//                      tripped bool x n, trip events u64, deferred f64 |
//            monitor, per circulation: last die f64, has_last bool,
//                      hold u64, held action u32, action u32,
//                      die reading f64, die valid bool,
//                      flow reading f64, flow valid bool, commanded f64
//
// Each value is stored once, by its owner: the safety monitor holds
// the previous interval's readings and the actions, and what a
// recorded channel holds (mean inlet temperature, safe-mode steps,
// peak faulted servers) is derived at finish(), not summed.
//
// Save and load share one field list (CheckpointHeader::visit and
// SimSession::visitSession over util::Archive), so the two directions
// cannot drift. Restore rejects wrong magic, unknown versions,
// truncation, checksum mismatches, fingerprint mismatches and
// channels out of place with distinct messages.
//
// Version history: v1 had no control-plane section; v2 adds
// the custom-control flag and the named stage-state list; v3 drops
// the sums a channel repeats (t_in_sum, safe_mode_steps, max_faulted),
// the trailing have_readings flag and the session's copy of the
// actions, and moves the readings into the monitor record. Files of
// an older version are refused by their version number.

constexpr char kMagic[8] = {'H', '2', 'P', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kCheckpointVersion = 3;

using util::ByteReader;
using util::ByteWriter;

/** The payload's leading run identity and control-plane section. */
struct CheckpointHeader
{
    uint64_t config_fp = 0;
    uint64_t trace_fp = 0;
    uint32_t policy = 0;
    bool resilient = false;
    uint64_t num_steps = 0;
    double dt = 0.0;
    uint64_t cursor = 0;
    /**
     * Run under user-supplied control, which a session cannot
     * rebuild: resume demands the pipeline back.
     */
    bool custom_control = false;
    /** Every declared-stateful stage's state, keyed by name. */
    std::vector<std::pair<std::string, std::string>> stage_state;

    void visit(util::Archive &ar)
    {
        ar.u64(config_fp);
        ar.u64(trace_fp);
        ar.u32(policy);
        ar.boolean(resilient);
        ar.u64(num_steps);
        ar.f64(dt);
        ar.u64(cursor);
        ar.boolean(custom_control);
        uint64_t stages = stage_state.size();
        ar.u64(stages);
        for (uint64_t i = 0; i < stages; ++i) {
            if (ar.loading())
                stage_state.emplace_back();
            ar.str(stage_state[i].first);
            ar.str(stage_state[i].second);
        }
    }
};

/**
 * Save or load every recorded channel. On load each name must be the
 * channel this configuration records at that position, and carry one
 * sample per completed step.
 */
void
visitChannels(sim::Recorder &rec, uint64_t cursor, util::Archive &ar)
{
    const std::vector<std::string> names = rec.channels();
    uint64_t count = names.size();
    ar.u64(count);
    expect(count == names.size(), "checkpoint records ", count,
           " channels; this configuration records ", names.size());
    for (const std::string &own : names) {
        std::string name = own;
        ar.str(name);
        expect(rec.has(name), "checkpoint channel `", name,
               "' is not recorded under this configuration");
        expect(name == own, "checkpoint channel `", name,
               "' is out of place: this configuration records `", own,
               "' at that position; the file is corrupt");
        sim::Recorder::Channel ch = rec.channel(name);
        uint64_t samples = rec.series(ch).size();
        ar.u64(samples);
        expect(samples == cursor, "checkpoint channel `", name,
               "' has ", samples, " samples for ", cursor,
               " completed steps; the file is corrupt");
        if (ar.loading()) {
            for (uint64_t k = 0; k < samples; ++k) {
                double v = 0.0;
                ar.f64(v);
                rec.record(ch, v);
            }
        } else {
            for (double v : rec.series(ch).samples())
                ar.f64(v);
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// SimSession.

SimSession::SimSession(const H2PSystem &sys,
                       const workload::UtilizationTrace &trace,
                       sched::Policy policy,
                       std::unique_ptr<control::ControlPipeline> pipeline)
    : sys_(&sys), trace_(&trace), policy_(policy),
      pipeline_(std::move(pipeline)), custom_control_(pipeline_ != nullptr)
{
    const H2PConfig &cfg = sys.config();
    const cluster::Datacenter &dc = sys.datacenter();
    const size_t servers = dc.numServers();
    expect(trace.numServers() >= servers, "trace covers ",
           trace.numServers(), " servers; datacenter has ", servers);
    expect(trace.numSteps() >= 1, "trace is empty");

    const size_t num_circ = dc.numCirculations();
    const sched::SafeModeParams &sm = cfg.safe_mode;
    resilient_ = cfg.faults.enabled() || sm.enabled;
    use_watchdog_ = resilient_ && sm.enabled && sm.watchdog_enabled;
    if (pipeline_ == nullptr)
        pipeline_ = sys.pipelines().make(policy);

    recorder_ = std::make_shared<sim::Recorder>(trace.dt());
    sim::Recorder &rec = *recorder_;

    // Resolve every channel once; the loop records through handles.
    namespace chn = sim::channels;
    ch_.teg = rec.channel(chn::kTegWPerServer);
    ch_.cpu = rec.channel(chn::kCpuWPerServer);
    ch_.pre = rec.channel(chn::kPre);
    ch_.tin = rec.channel(chn::kTInMeanC);
    ch_.plant = rec.channel(chn::kPlantW);
    ch_.pump = rec.channel(chn::kPumpW);
    ch_.die = rec.channel(chn::kMaxDieC);
    ch_.umean = rec.channel(chn::kUtilMean);
    ch_.umax = rec.channel(chn::kUtilMax);
    if (resilient_) {
        ch_.faulted = rec.channel(chn::kFaultedServers);
        ch_.lost = rec.channel(chn::kTegWLostPerServer);
        ch_.safe_mode = rec.channel(chn::kSafeModeCirculations);
        ch_.throttled = rec.channel(chn::kThrottledServers);
    }
    // Every channel this run records is now resolved; anything else
    // would produce ragged export columns.
    rec.freeze();

    if (resilient_) {
        injector_ = std::make_unique<fault::FaultInjector>(
            cfg.faults, dc,
            static_cast<double>(trace.numSteps()) * trace.dt());
        monitor_ = std::make_unique<sched::SafetyMonitor>(num_circ, sm);

        fault::WatchdogParams wd;
        wd.trip_c = cfg.datacenter.server.thermal.max_operating_c;
        wd.throttle_factor = sm.throttle_factor;
        wd.recovery_margin_c = sm.recovery_margin_c;
        wd.release_step = sm.release_step;
        watchdog_ =
            std::make_unique<fault::ThermalTripWatchdog>(servers, wd);
    }

    acc_.circ_safe_steps.assign(num_circ, 0);
    beginObsRun();
}

void
SimSession::beginObsRun()
{
    orun_.obs = sys_->observability();
    if (orun_.obs == nullptr)
        return;

    obs::SpanRegistry &spans = orun_.obs->spans();
    orun_.span_step = spans.id("step");
    orun_.span_decide = spans.id("sched.decide");
    orun_.span_evaluate = spans.id("dc.evaluate");

    obs::MetricsRegistry &m = orun_.obs->metrics();
    orun_.steps = m.counter("run.steps");
    orun_.max_die_hist = m.histogram("step.max_die_c", 20.0, 100.0, 40);
    orun_.teg_hist = m.histogram("step.teg_w_per_server", 0.0, 10.0, 40);

    orun_.cache_hits0 = sys_->optimizer().cacheHits();
    orun_.cache_misses0 = sys_->optimizer().cacheMisses();

    orun_.obs->events().append(
        0.0, 0, "run", "system", "run_start policy=" + sched::toString(policy_),
        {{"num_steps", static_cast<double>(trace_->numSteps())},
         {"dt_s", trace_->dt()}});
}

void
SimSession::finishObsRun(const RunSummary &summary) const
{
    if (orun_.obs == nullptr)
        return;

    obs::MetricsRegistry &m = orun_.obs->metrics();
    m.counter("optimizer.cache_hits")
        .add(sys_->optimizer().cacheHits() - orun_.cache_hits0);
    m.counter("optimizer.cache_misses")
        .add(sys_->optimizer().cacheMisses() - orun_.cache_misses0);
    m.gauge("run.pre").set(summary.pre);
    m.gauge("run.avg_teg_w").set(summary.avg_teg_w);
    m.gauge("run.avg_cpu_w").set(summary.avg_cpu_w);
    m.gauge("run.safe_fraction").set(summary.safe_fraction);
    m.gauge("run.plant_energy_kwh").set(summary.plant_energy_kwh);

    const sim::Recorder &rec = *recorder_;
    const obs::ObsParams &p = orun_.obs->params();
    // Telemetry is whole or absent after a crash, not durable: two
    // fsyncs would cost more than a short run.
    if (!p.jsonl_path.empty()) {
        util::replaceFile(p.jsonl_path, [&](std::ostream &os) {
            os << "{\"type\":\"run\",\"policy\":\""
               << obs::jsonEscape(sched::toString(summary.policy))
               << "\",\"dt_s\":" << rec.dt() << "}\n";
            rec.writeJsonl(os);
            orun_.obs->writeJsonl(os);
        });
    }
    if (!p.csv_path.empty()) {
        util::replaceFile(p.csv_path, [&](std::ostream &os) {
            orun_.obs->writeMetricsCsv(os);
        });
    }
    if (p.print_summary)
        orun_.obs->writeSummary(std::cout);
}

void
SimSession::step()
{
    expect(!finished_, "session already finished");
    expect(!done(), "session is done after ", cursor_,
           " steps; nothing left to step");

    const workload::UtilizationTrace &trace = *trace_;
    const cluster::Datacenter &dc = sys_->datacenter();
    const size_t step = cursor_;
    const double dt = trace.dt();
    const size_t servers = dc.numServers();
    const double n = static_cast<double>(servers);
    const sched::SafeModeParams &sm = sys_->config().safe_mode;
    const size_t num_circ = dc.numCirculations();
    const double now_s = static_cast<double>(step) * dt;

    // Stage 0: cooperative supervision. A violated guard stops the
    // run *between* steps, so every completed step's state is exactly
    // the deterministic state and a supervisor can still checkpoint.
    if (guard_.active()) {
        if (guard_.cancel != nullptr && guard_.cancel->cancelRequested())
            failRun(FailureKind::Cancelled, step, "guard",
                    "cancellation requested");
        if (guard_.step_budget > 0 &&
            step - guard_start_cursor_ >= guard_.step_budget)
            failRun(FailureKind::Timeout, step, kStepBudgetStage,
                    "step budget of ", guard_.step_budget,
                    " steps exhausted");
        if (guard_.deadline_s > 0.0 &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - guard_start_)
                    .count() > guard_.deadline_s)
            failRun(FailureKind::Timeout, step, "deadline",
                    "wall-clock deadline of ", guard_.deadline_s,
                    " s exceeded");
    }

    // Span timing is done with explicit timestamps instead of nested
    // TraceSpans so adjacent stage boundaries share one clock read:
    // the decide span's end doubles as the evaluate span's start. At
    // SoA-kernel step times the clock reads *are* the obs cost, so
    // each saved read matters for the [obs] overhead budget.
    using ObsClock = std::chrono::steady_clock;
    obs::Observability *const sink = orun_.obs;
    ObsClock::time_point t_step0;
    if (sink != nullptr)
        t_step0 = ObsClock::now();

    // Stage 1: fault-timeline advance.
    if (resilient_) {
        injector_->advanceTo(now_s);

        // Every fault whose onset just passed becomes a structured
        // event; the injector's timeline is sorted by onset, so the
        // newly struck ones are exactly the next struckCount() delta.
        if (sink != nullptr) {
            for (; seen_faults_ < injector_->struckCount(); ++seen_faults_) {
                const fault::FaultEvent &fe =
                    injector_->events()[seen_faults_];
                sink->events().append(
                    fe.time_s, static_cast<long>(step), "fault",
                    "circ" + std::to_string(fe.circulation),
                    fault::toString(fe.kind),
                    {{"server", static_cast<double>(fe.server)},
                     {"magnitude", fe.magnitude},
                     {"duration_s", fe.duration_s}});
            }
        }
    }

    // Stage 2: workload arrival and watchdog shaping.
    trace.stepInto(step, utils_);
    utils_.resize(servers);
    if (use_watchdog_)
        watchdog_->shapeInPlace(utils_, dt);

    // Stage 3: sensing / safe-mode assessment (on the previous
    // interval's possibly-corrupted readings; the first interval has
    // none, so every loop starts Normal).
    if (resilient_ && sm.enabled && step > 0) {
        for (size_t c = 0; c < num_circ; ++c) {
            const sched::SafeModeAction prev = monitor_->actions()[c];
            const sched::SafeModeAction next = monitor_->assess(c, dt);
            if (sink != nullptr && next != prev)
                sink->events().append(
                    now_s, static_cast<long>(step), "safe_mode",
                    "circ" + std::to_string(c),
                    std::string(safeModeActionName(prev)) + " -> " +
                        safeModeActionName(next));
        }
    }

    // Stage 4: scheduling decision — the session's control pipeline
    // (canonical per-policy stages from the PipelineFactory, or the
    // custom control the session was started with).
    // The timestamp after this stage closes the sched.decide span and
    // opens the dc.evaluate one.
    control::ControlContext cctx;
    cctx.step = step;
    cctx.dt_s = dt;
    cctx.dc = &dc;
    cctx.utils = &utils_;
    cctx.actions = resilient_ ? &monitor_->actions() : nullptr;
    cctx.health = resilient_ ? &injector_->health() : nullptr;
    cctx.obs = sink;
    ObsClock::time_point t_decide0;
    if (sink != nullptr)
        t_decide0 = ObsClock::now();
    pipeline_->run(cctx, decision_);
    ObsClock::time_point t_decide1;
    if (sink != nullptr) {
        t_decide1 = ObsClock::now();
        obs::SpanRegistry::record(orun_.span_decide, t_decide1 - t_decide0);
    }

    // The scheduling decision must be numerically sound before it
    // drives the datacenter: a NaN/inf setpoint (diverged optimizer
    // input, buggy controller) is caught here with its step and stage
    // instead of poisoning the summary averages silently.
    for (size_t c = 0; c < decision_.settings.size(); ++c) {
        const cluster::CoolingSetting &cs = decision_.settings[c];
        if (!std::isfinite(cs.t_in_c) || !std::isfinite(cs.flow_lph))
            failRun(FailureKind::NumericDivergence, step, "decide",
                    "circulation ", c,
                    " cooling setting is not finite (t_in=", cs.t_in_c,
                    " C, flow=", cs.flow_lph, " lph)");
    }

    // Stage 5: datacenter evaluation.
    dc.evaluateInto(decision_.utils, decision_.settings,
                    resilient_ ? &injector_->health() : nullptr, state_);
    if (sink != nullptr)
        obs::SpanRegistry::record(orun_.span_evaluate,
                                  ObsClock::now() - t_decide1);
    if (!std::isfinite(state_.teg_power_w) ||
        !std::isfinite(state_.cpu_power_w) ||
        !std::isfinite(state_.plant_power_w) ||
        !std::isfinite(state_.pump_power_w))
        failRun(FailureKind::NumericDivergence, step, "evaluate",
                "datacenter state is not finite (teg=", state_.teg_power_w,
                " W, cpu=", state_.cpu_power_w,
                " W, plant=", state_.plant_power_w,
                " W, pump=", state_.pump_power_w, " W); the model diverged");

    // Stage 6: stage feedback. First the control pipeline sees the
    // state its decision produced (the balancer's thermal-headroom
    // and TEG-power view feeds from here); then the true die
    // temperatures, with each loop's hottest die, go to the watchdog
    // (the CPU's own on-die sensor) and the possibly-corrupted loop
    // readings to the safety monitor for the next interval.
    pipeline_->observe(cctx, state_);
    if (resilient_) {
        for (size_t c = 0; c < state_.circulations.size(); ++c) {
            const cluster::CirculationState &cs = state_.circulations[c];
            monitor_->feed(c, injector_->readDie(c, cs.max_die_c),
                           injector_->readFlow(c, cs.delivered_flow_lph),
                           decision_.settings[c].flow_lph);
        }
        if (use_watchdog_)
            watchdog_->observe(state_);
    }

    // Stage 7: recording and accumulation.
    double teg_per = state_.teg_power_w / n;
    double cpu_per = state_.cpu_power_w / n;
    double t_in_mean = 0.0;
    for (const auto &cs : decision_.settings)
        t_in_mean += cs.t_in_c;
    t_in_mean /= static_cast<double>(decision_.settings.size());

    double max_die = 0.0;
    for (size_t c = 0; c < state_.circulations.size(); ++c) {
        max_die = std::max(max_die, state_.circulations[c].max_die_c);
        if (state_.circulations[c].all_safe)
            ++acc_.circ_safe_steps[c];
    }

    double util_mean = 0.0, util_max = 0.0;
    for (double u : utils_) {
        util_mean += u;
        util_max = std::max(util_max, u);
    }
    util_mean /= n;

    sim::Recorder &rec = *recorder_;
    rec.record(ch_.teg, teg_per);
    rec.record(ch_.cpu, cpu_per);
    rec.record(ch_.pre, cpu_per > 0.0 ? teg_per / cpu_per : 0.0);
    rec.record(ch_.tin, t_in_mean);
    rec.record(ch_.plant, state_.plant_power_w);
    rec.record(ch_.pump, state_.pump_power_w);
    rec.record(ch_.die, max_die);
    rec.record(ch_.umean, util_mean);
    rec.record(ch_.umax, util_max);

    if (resilient_) {
        rec.record(ch_.faulted, static_cast<double>(state_.faulted_servers));
        rec.record(ch_.lost, state_.teg_power_lost_w / n);
        rec.record(ch_.safe_mode,
                   static_cast<double>(monitor_->numDegraded()));
        rec.record(ch_.throttled,
                   static_cast<double>(
                       use_watchdog_ ? watchdog_->numThrottled() : 0));
    }

    acc_.teg_j += state_.teg_power_w * dt;
    acc_.cpu_j += state_.cpu_power_w * dt;
    acc_.plant_j += state_.plant_power_w * dt;
    acc_.pump_j += state_.pump_power_w * dt;
    if (state_.all_safe)
        ++acc_.safe_steps;
    if (resilient_)
        acc_.teg_lost_j += state_.teg_power_lost_w * dt;

    // Stage 8: observability.
    if (sink != nullptr) {
        orun_.steps.add();
        orun_.max_die_hist.observe(max_die);
        orun_.teg_hist.observe(teg_per);
        if (use_watchdog_) {
            size_t trips = watchdog_->tripEvents();
            if (trips > seen_trips_) {
                sink->events().append(
                    now_s, static_cast<long>(step), "watchdog", "cluster",
                    "thermal trip",
                    {{"new_trips", static_cast<double>(trips - seen_trips_)},
                     {"throttled_servers",
                      static_cast<double>(watchdog_->numThrottled())}});
                seen_trips_ = trips;
            }
        }
        obs::SpanRegistry::record(orun_.span_step, ObsClock::now() - t_step0);
    }

    ++cursor_;
}

void
SimSession::runToCompletion()
{
    while (!done())
        step();
}

RunResult
SimSession::finish()
{
    expect(!finished_, "session already finished");
    expect(done(), "session has only evaluated ", cursor_, " of ",
           numSteps(), " steps; step() it to completion (or "
                       "checkpoint it) before finish()");
    finished_ = true;

    const double steps = static_cast<double>(numSteps());

    RunResult result;
    result.summary.policy = policy_;
    result.recorder = recorder_;

    RunSummary &sum = result.summary;
    const sim::Recorder &rec = *recorder_;
    const TimeSeries &teg_series = rec.series(ch_.teg);
    sum.avg_teg_w = teg_series.mean();
    sum.peak_teg_w = teg_series.max();
    sum.avg_cpu_w = rec.series(ch_.cpu).mean();
    sum.teg_energy_kwh = units::joulesToKwh(acc_.teg_j);
    sum.cpu_energy_kwh = units::joulesToKwh(acc_.cpu_j);
    sum.plant_energy_kwh = units::joulesToKwh(acc_.plant_j);
    sum.pump_energy_kwh = units::joulesToKwh(acc_.pump_j);
    sum.pre = acc_.cpu_j > 0.0 ? acc_.teg_j / acc_.cpu_j : 0.0;
    sum.safe_fraction = static_cast<double>(acc_.safe_steps) / steps;
    sum.avg_t_in_c = rec.series(ch_.tin).mean();
    if (resilient_) {
        sum.fault_events = injector_->struckCount();
        sum.throttle_events = use_watchdog_ ? watchdog_->tripEvents() : 0;
        sum.throttled_work_server_hours =
            use_watchdog_ ? watchdog_->deferredWorkSeconds() / 3600.0
                          : 0.0;
        sum.teg_energy_lost_kwh = units::joulesToKwh(acc_.teg_lost_j);
        // Both channels hold small integers, so the sum is exact.
        const std::vector<double> &degraded =
            rec.series(ch_.safe_mode).samples();
        sum.safe_mode_steps = static_cast<size_t>(
            std::accumulate(degraded.begin(), degraded.end(), 0.0));
        sum.max_faulted_servers =
            static_cast<size_t>(rec.series(ch_.faulted).max());
    }
    sum.circulation_safe_fraction.reserve(acc_.circ_safe_steps.size());
    for (size_t c : acc_.circ_safe_steps)
        sum.circulation_safe_fraction.push_back(
            static_cast<double>(c) / steps);
    FiniteCheck finite;
    sum.visit(finite);
    finishObsRun(sum);
    return result;
}

void
SimSession::setGuard(const RunGuard &guard)
{
    guard_ = guard;
    guard_start_ = std::chrono::steady_clock::now();
    guard_start_cursor_ = cursor_;
}

const cluster::DatacenterState &
SimSession::lastState() const
{
    expect(cursor_ > 0, "no step evaluated yet");
    return state_;
}

const sched::ScheduleDecision &
SimSession::lastDecision() const
{
    expect(cursor_ > 0, "no step evaluated yet");
    return decision_;
}

const std::vector<double> &
SimSession::lastUtils() const
{
    expect(cursor_ > 0, "no step evaluated yet");
    return utils_;
}

void
SummaryAccumulator::visit(util::Archive &ar)
{
    ar.f64(teg_j);
    ar.f64(cpu_j);
    ar.f64(plant_j);
    ar.f64(pump_j);
    ar.f64(teg_lost_j);
    ar.size(safe_steps);
    ar.count(circ_safe_steps.size(), "checkpoint circulation count");
    for (size_t &c : circ_safe_steps)
        ar.size(c);
}

void
SimSession::visitSession(util::Archive &ar)
{
    acc_.visit(ar);
    visitChannels(*recorder_, cursor_, ar);
    if (!resilient_)
        return;

    // The fault timeline is replayed to the last completed step, not
    // saved; only the sensor latches and the feedback loops need
    // explicit state.
    const double last_step_s =
        cursor_ > 0 ? static_cast<double>(cursor_ - 1) * trace_->dt()
                    : -1.0;
    injector_->visit(ar, last_step_s);
    watchdog_->visit(ar);
    monitor_->visit(ar);

    if (ar.loading()) {
        // Events struck before the checkpoint were already reported
        // by the run that wrote it; only post-resume strikes and
        // trips become new obs events.
        seen_faults_ = injector_->struckCount();
        seen_trips_ = watchdog_->tripEvents();
    }
}

void
SimSession::saveCheckpoint(const std::string &path) const
{
    expect(!finished_, "cannot checkpoint a finished session");

    CheckpointHeader h;
    h.config_fp = configDigest(sys_->config());
    h.trace_fp = trace_->fingerprint();
    h.policy = policy_ == sched::Policy::TegLoadBalance ? 1 : 0;
    h.resilient = resilient_;
    h.num_steps = numSteps();
    h.dt = trace_->dt();
    h.cursor = cursor_;
    h.custom_control = custom_control_;
    h.stage_state = pipeline_->captureState();

    ByteWriter w;
    util::Archive ar(w);
    h.visit(ar);
    // Saving only reads the session; the visit is shared with resume().
    const_cast<SimSession *>(this)->visitSession(ar);

    // Atomic temp + rename (util::atomicWriteFile): process death can
    // never leave a truncated checkpoint for resume() to trip over.
    util::atomicWriteFile(
        path, util::sealRecord(kMagic, kCheckpointVersion, w.data()));
    checkpointEvent("save " + path);
}

SimSession
SimSession::resume(const H2PSystem &sys, const std::string &path,
                   const workload::UtilizationTrace &trace,
                   std::unique_ptr<control::ControlPipeline> pipeline)
{
    std::ifstream is(path, std::ios::binary);
    expect(is.good(), "cannot open checkpoint `", path, "'");
    std::string file((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());

    const util::SealedRecord rec =
        util::openRecord(file, 0, kMagic, kCheckpointVersion);
    expect(rec.ok(), "checkpoint `", path, "' ",
           rec.describe(kCheckpointVersion));
    expect(rec.next == file.size(), "checkpoint `", path,
           "' has trailing garbage");

    ByteReader r(file, rec.begin, rec.end);
    util::Archive ar(r);
    CheckpointHeader h;
    h.visit(ar);
    expect(h.config_fp == configDigest(sys.config()),
           "checkpoint was taken under a different configuration (an "
           "INI key outside [obs] or the scripted faults differ), or it "
           "was written by an older build; refusing to resume");
    expect(h.trace_fp == trace.fingerprint(),
           "checkpoint was taken against a different workload trace; "
           "refusing to resume");
    expect(h.policy <= 1, "checkpoint carries unknown policy ",
           h.policy);
    expect(h.num_steps == trace.numSteps() && h.dt == trace.dt(),
           "checkpoint trace shape mismatch");
    expect(h.cursor <= h.num_steps, "checkpoint cursor ", h.cursor,
           " exceeds the trace length ", h.num_steps);
    // A session cannot rebuild user-supplied control, and the built-in
    // pipeline in its place would silently change the run.
    expect(!h.custom_control || pipeline != nullptr, "checkpoint `", path,
           "' was taken under custom control, which a session cannot "
           "rebuild; resume it with the pipeline it ran");

    SimSession s(sys, trace,
                 h.policy == 1 ? sched::Policy::TegLoadBalance
                               : sched::Policy::TegOriginal,
                 std::move(pipeline));
    H2P_ASSERT(s.resilient_ == h.resilient,
               "config digest matched but pipeline shape did "
               "not");
    s.cursor_ = h.cursor;
    s.pipeline_->applyState(h.stage_state);
    s.visitSession(ar);
    expect(r.exhausted(),
           "checkpoint has trailing bytes; the file is corrupt");
    s.checkpointEvent("restore " + path);
    return s;
}

void
SimSession::checkpointEvent(std::string detail) const
{
    if (obs::Observability *sink = sys_->observability())
        sink->events().append(0.0, static_cast<long>(cursor_),
                              "checkpoint", "system", std::move(detail),
                              {{"step", static_cast<double>(cursor_)}});
}

} // namespace core
} // namespace h2p
