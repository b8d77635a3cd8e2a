#include "core/sim_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/channels.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/units.h"

namespace h2p {
namespace core {

namespace {

[[noreturn]] void
throwDiverged(size_t step, const char *stage, const std::string &what)
{
    RunFailure f;
    f.kind = FailureKind::NumericDivergence;
    f.step = step;
    f.stage = stage;
    f.message = what;
    throw RunError(std::move(f));
}

void
checkFinite(double v, const char *field)
{
    if (!std::isfinite(v))
        throwDiverged(RunFailure::kNoStep, "summary",
                      detail::concat(
                          "run summary field `", field,
                          "' is not finite (", v,
                          "); the model diverged or a parameter is "
                          "out of range"));
}

/**
 * Every number the summary reports must be finite: a NaN or inf here
 * means some model input (e.g. an absurd parasitic power) drove the
 * simulation out of its domain, and silently returning it poisons
 * every downstream table. Fail the run loudly instead.
 */
void
validateSummary(const RunSummary &s)
{
    checkFinite(s.avg_teg_w, "avg_teg_w");
    checkFinite(s.peak_teg_w, "peak_teg_w");
    checkFinite(s.avg_cpu_w, "avg_cpu_w");
    checkFinite(s.pre, "pre");
    checkFinite(s.teg_energy_kwh, "teg_energy_kwh");
    checkFinite(s.cpu_energy_kwh, "cpu_energy_kwh");
    checkFinite(s.plant_energy_kwh, "plant_energy_kwh");
    checkFinite(s.pump_energy_kwh, "pump_energy_kwh");
    checkFinite(s.safe_fraction, "safe_fraction");
    checkFinite(s.avg_t_in_c, "avg_t_in_c");
    checkFinite(s.throttled_work_server_hours,
                "throttled_work_server_hours");
    checkFinite(s.teg_energy_lost_kwh, "teg_energy_lost_kwh");
    for (double f : s.circulation_safe_fraction)
        checkFinite(f, "circulation_safe_fraction");
}

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
// The format is a small explicitly-little-endian binary layout
// (util::ByteWriter/ByteReader):
//
//   magic "H2PCKPT1" | version u32 | payload length u64 |
//   payload bytes | FNV-1a(payload) u64
//
// Doubles travel as their IEEE-754 bit patterns, never through text;
// bool is one byte (0/1), size_t counters are u64 and a string is its
// u64 length followed by its bytes. The v2 payload, in order:
//
//   header   config fingerprint u64 | trace fingerprint u64 |
//            policy u32 (0 Original, 1 LoadBalance) | resilient bool |
//            num_steps u64 | dt f64 | cursor u64
//   control  custom-control bool | stage count u64 |
//            per stateful stage: name str, state bytes str
//   sums     teg_j, cpu_j, plant_j, pump_j, teg_lost_j, t_in_sum f64 |
//            safe_steps, safe_mode_steps, max_faulted u64 |
//            circulation count u64 | per circulation: safe steps u64
//   channels channel count u64 | per channel, in sorted name order:
//            name str, sample count u64 (= cursor), samples f64
//   resilient runs only:
//            circulation count u64 |
//            per circulation: die latch held bool, value f64,
//                             flow latch held bool, value f64 |
//            watchdog: server count u64, caps f64 x n, backlogs f64 x n,
//                      tripped bool x n, trip events u64, deferred f64 |
//            monitor, per circulation: last die f64, has_last bool,
//                      hold u64, held action u32, action u32 |
//            readings, per circulation: die value f64, die valid bool,
//                      flow value f64, flow valid bool, commanded f64 |
//            have_readings bool | actions u32 per circulation
//
// Save and load share one field list (CheckpointHeader::visit and
// SimEngine::visitSession over util::Archive), so the two directions
// cannot drift. Restore rejects wrong magic, unknown versions,
// truncation, checksum mismatches, fingerprint mismatches and
// channels out of place with distinct messages.
//
// Version history: v1 (PR 4) had no control-plane section; v2 adds
// the custom-control flag and the named stage-state list.

constexpr char kMagic[8] = {'H', '2', 'P', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kCheckpointVersion = 2;

using util::ByteReader;
using util::ByteWriter;

uint64_t
payloadChecksum(const char *payload, size_t size)
{
    util::Fnv1a h;
    h.bytes(payload, size);
    return h.digest();
}

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
     * Run under user-supplied control, which the engine cannot
     * rebuild: resume demands a re-attach.
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
// SimSession: thin delegation into the engine.

size_t
SimSession::numSteps() const
{
    return trace_->numSteps();
}

void
SimSession::step()
{
    expect(!finished_, "session already finished");
    expect(!done(), "session is done after ", cursor_,
           " steps; nothing left to step");
    engine_->stepOnce(*this);
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
    return engine_->finish(*this);
}

void
SimSession::saveCheckpoint(const std::string &path) const
{
    engine_->saveCheckpoint(*this, path);
}

void
SimSession::setPipeline(std::unique_ptr<control::ControlPipeline> p)
{
    if (p == nullptr) {
        // Restore the policy's built-in pipeline. State stashed by a
        // custom-control resume belongs to custom stages and cannot
        // land in the factory pipeline.
        expect(pending_state_.empty(),
               "this session was resumed from a custom-control "
               "checkpoint carrying control-stage state; re-attach a "
               "matching pipeline with setPipeline() instead of "
               "restoring the built-in one");
        H2P_ASSERT(engine_ != nullptr && engine_->w_.pipelines != nullptr,
                   "session has no pipeline factory");
        pipeline_ = engine_->w_.pipelines->make(policy_);
        custom_control_ = false;
        return;
    }
    // A checkpoint taken under custom control stashes its stage state
    // until the caller re-attaches; hand it to the incoming pipeline
    // now so stepping resumes bit-identically.
    if (!pending_state_.empty()) {
        p->applyState(pending_state_);
        pending_state_.clear();
    }
    pipeline_ = std::move(p);
    custom_control_ = true;
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

// ---------------------------------------------------------------------
// SimEngine.

SimEngine::SimEngine(const Wiring &wiring) : w_(wiring)
{
    H2P_ASSERT(w_.config != nullptr && w_.dc != nullptr &&
                   w_.optimizer != nullptr && w_.pipelines != nullptr,
               "engine wiring incomplete");
}

uint64_t
SimEngine::configFingerprint() const
{
    const H2PConfig &c = *w_.config;
    util::Fnv1a h;
    h.u64(w_.dc->topologyFingerprint());

    // Decision-relevant control parameters.
    h.size(c.lookup.util_points);
    h.f64(c.lookup.flow_min_lph);
    h.f64(c.lookup.flow_max_lph);
    h.size(c.lookup.flow_points);
    h.f64(c.lookup.tin_min_c);
    h.f64(c.lookup.tin_max_c);
    h.size(c.lookup.tin_points);
    h.f64(c.optimizer.t_safe_c);
    h.f64(c.optimizer.band_c);
    // The cache quantum changes the planned utilization (it is an
    // approximation knob).
    h.f64(c.perf.optimizer_cache_quantum);

    // Fault scenario: the whole timeline derives from these.
    const fault::FaultScenarioParams &f = c.faults;
    h.u64(f.seed);
    h.f64(f.pump_degrade_per_circ_year);
    h.f64(f.pump_fail_per_circ_year);
    h.f64(f.teg_open_per_server_year);
    h.f64(f.teg_short_per_server_year);
    h.f64(f.chiller_outages_per_year);
    h.f64(f.tower_outages_per_year);
    h.f64(f.die_sensor_faults_per_circ_year);
    h.f64(f.flow_sensor_faults_per_circ_year);
    h.f64(f.fouling_kpw_per_year);
    h.f64(f.outage_duration_hours);
    h.f64(f.sensor_fault_duration_hours);
    h.f64(f.sensor_drift_c_per_hour);
    h.f64(f.pump_degraded_flow_factor);
    h.size(f.scripted.size());
    for (const fault::FaultEvent &e : f.scripted) {
        h.f64(e.time_s);
        h.u64(static_cast<uint64_t>(e.kind));
        h.size(e.circulation);
        h.size(e.server);
        h.f64(e.magnitude);
        h.f64(e.duration_s);
    }

    // Degraded-mode control.
    const sched::SafeModeParams &sm = c.safe_mode;
    h.boolean(sm.enabled);
    h.f64(sm.margin_c);
    h.f64(sm.min_plausible_c);
    h.f64(sm.max_plausible_c);
    h.f64(sm.max_rate_c_per_s);
    h.f64(sm.flow_tolerance);
    h.size(sm.hold_steps);
    h.boolean(sm.watchdog_enabled);
    h.f64(sm.throttle_factor);
    h.f64(sm.recovery_margin_c);
    h.f64(sm.release_step);
    h.f64(c.datacenter.server.thermal.max_operating_c);

    // Autonomous balancer: when enabled it replaces the static
    // balance stage, so every knob shifts the decision sequence.
    const control::BalancerParams &b = c.balancer;
    h.boolean(b.enabled);
    h.f64(b.max_move);
    h.f64(b.hysteresis);
    h.f64(b.drain_rate);
    h.size(b.max_pulls);
    h.boolean(b.drain_on_fallback);
    h.f64(b.headroom_floor_c);
    h.size(b.max_stale_steps);

    return h.digest();
}

SimSession
SimEngine::start(const workload::UtilizationTrace &trace,
                 sched::Policy policy) const
{
    const size_t servers = w_.dc->numServers();
    expect(trace.numServers() >= servers, "trace covers ",
           trace.numServers(), " servers; datacenter has ", servers);
    expect(trace.numSteps() >= 1, "trace is empty");

    const size_t num_circ = w_.dc->numCirculations();
    const sched::SafeModeParams &sm = w_.config->safe_mode;

    SimSession s;
    s.engine_ = this;
    s.trace_ = &trace;
    s.policy_ = policy;
    s.resilient_ = w_.config->faults.enabled() || sm.enabled;
    s.use_watchdog_ = s.resilient_ && sm.enabled && sm.watchdog_enabled;
    s.pipeline_ = w_.pipelines->make(policy);

    s.recorder_ = std::make_shared<sim::Recorder>(trace.dt());
    sim::Recorder &rec = *s.recorder_;

    // Resolve every channel once; the loop records through handles.
    namespace chn = sim::channels;
    s.ch_.teg = rec.channel(chn::kTegWPerServer);
    s.ch_.cpu = rec.channel(chn::kCpuWPerServer);
    s.ch_.pre = rec.channel(chn::kPre);
    s.ch_.tin = rec.channel(chn::kTInMeanC);
    s.ch_.plant = rec.channel(chn::kPlantW);
    s.ch_.pump = rec.channel(chn::kPumpW);
    s.ch_.die = rec.channel(chn::kMaxDieC);
    s.ch_.umean = rec.channel(chn::kUtilMean);
    s.ch_.umax = rec.channel(chn::kUtilMax);
    if (s.resilient_) {
        s.ch_.faulted = rec.channel(chn::kFaultedServers);
        s.ch_.lost = rec.channel(chn::kTegWLostPerServer);
        s.ch_.safe_mode = rec.channel(chn::kSafeModeCirculations);
        s.ch_.throttled = rec.channel(chn::kThrottledServers);
    }
    // Every channel this run records is now resolved; anything else
    // would produce ragged export columns.
    rec.freeze();

    if (s.resilient_) {
        s.injector_ = std::make_unique<fault::FaultInjector>(
            w_.config->faults, *w_.dc,
            static_cast<double>(trace.numSteps()) * trace.dt());
        s.monitor_ = std::make_unique<sched::SafetyMonitor>(num_circ, sm);

        fault::WatchdogParams wd;
        wd.trip_c =
            w_.config->datacenter.server.thermal.max_operating_c;
        wd.throttle_factor = sm.throttle_factor;
        wd.recovery_margin_c = sm.recovery_margin_c;
        wd.release_step = sm.release_step;
        s.watchdog_ =
            std::make_unique<fault::ThermalTripWatchdog>(servers, wd);

        // The controller acts on the previous interval's measurements;
        // the first interval has none, so every loop starts Normal.
        s.die_read_.resize(num_circ);
        s.flow_read_.resize(num_circ);
        s.commanded_flow_.assign(num_circ, 0.0);
        s.actions_.assign(num_circ, sched::SafeModeAction::Normal);
    }

    s.acc_.circ_safe_steps.assign(num_circ, 0);
    s.orun_ = beginObsRun(policy, trace.dt(), trace.numSteps());
    return s;
}

SimSession::ObsRun
SimEngine::beginObsRun(sched::Policy policy, double dt,
                       size_t num_steps) const
{
    SimSession::ObsRun r;
    r.obs = w_.obs;
    if (r.obs == nullptr)
        return r;

    obs::SpanRegistry &spans = r.obs->spans();
    r.span_step = spans.id("step");
    r.span_decide = spans.id("sched.decide");
    r.span_evaluate = spans.id("dc.evaluate");

    obs::MetricsRegistry &m = r.obs->metrics();
    r.steps = m.counter("run.steps");
    r.max_die_hist = m.histogram("step.max_die_c", 20.0, 100.0, 40);
    r.teg_hist = m.histogram("step.teg_w_per_server", 0.0, 10.0, 40);

    r.cache_hits0 = w_.optimizer->cacheHits();
    r.cache_misses0 = w_.optimizer->cacheMisses();

    obs::Event e;
    e.kind = "run";
    e.subject = "system";
    e.detail = "run_start policy=" + sched::toString(policy);
    e.fields = {{"num_steps", static_cast<double>(num_steps)},
                {"dt_s", dt}};
    r.obs->events().append(std::move(e));
    return r;
}

void
SimEngine::finishObsRun(const SimSession::ObsRun &orun,
                        const sim::Recorder &rec,
                        const RunSummary &summary) const
{
    if (orun.obs == nullptr)
        return;

    obs::MetricsRegistry &m = orun.obs->metrics();
    m.counter("optimizer.cache_hits")
        .add(w_.optimizer->cacheHits() - orun.cache_hits0);
    m.counter("optimizer.cache_misses")
        .add(w_.optimizer->cacheMisses() - orun.cache_misses0);
    m.gauge("run.pre").set(summary.pre);
    m.gauge("run.avg_teg_w").set(summary.avg_teg_w);
    m.gauge("run.avg_cpu_w").set(summary.avg_cpu_w);
    m.gauge("run.safe_fraction").set(summary.safe_fraction);
    m.gauge("run.plant_energy_kwh").set(summary.plant_energy_kwh);

    const obs::ObsParams &p = orun.obs->params();
    if (!p.jsonl_path.empty()) {
        util::atomicWriteFile(p.jsonl_path, [&](std::ostream &os) {
            os << "{\"type\":\"run\",\"policy\":\""
               << obs::jsonEscape(sched::toString(summary.policy))
               << "\",\"dt_s\":" << rec.dt() << "}\n";
            rec.writeJsonl(os);
            orun.obs->writeJsonl(os);
        });
    }
    if (!p.csv_path.empty()) {
        util::atomicWriteFile(p.csv_path, [&](std::ostream &os) {
            orun.obs->writeMetricsCsv(os);
        });
    }
    if (p.print_summary)
        orun.obs->writeSummary(std::cout);
}

void
SimEngine::stepOnce(SimSession &s) const
{
    const workload::UtilizationTrace &trace = *s.trace_;
    const size_t step = s.cursor_;
    const double dt = trace.dt();
    const size_t servers = w_.dc->numServers();
    const double n = static_cast<double>(servers);
    const sched::SafeModeParams &sm = w_.config->safe_mode;
    const size_t num_circ = w_.dc->numCirculations();
    const double now_s = static_cast<double>(step) * dt;

    // Stage 0: cooperative supervision. A violated guard stops the
    // run *between* steps, so every completed step's state is exactly
    // the deterministic state and a supervisor can still checkpoint.
    if (s.guard_.active()) {
        RunFailure f;
        f.step = step;
        if ((s.guard_.cancel != nullptr &&
             s.guard_.cancel->cancelRequested()) ||
            (s.guard_.cancel_alt != nullptr &&
             s.guard_.cancel_alt->cancelRequested())) {
            f.kind = FailureKind::Cancelled;
            f.stage = "guard";
            f.message = "cancellation requested";
            throw RunError(std::move(f));
        }
        if (s.guard_.step_budget > 0 &&
            step - s.guard_start_cursor_ >= s.guard_.step_budget) {
            f.kind = FailureKind::Timeout;
            f.stage = "step_budget";
            f.message = detail::concat("step budget of ",
                                       s.guard_.step_budget,
                                       " steps exhausted");
            throw RunError(std::move(f));
        }
        if (s.guard_.deadline_s > 0.0 &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - s.guard_start_)
                    .count() > s.guard_.deadline_s) {
            f.kind = FailureKind::Timeout;
            f.stage = "deadline";
            f.message = detail::concat("wall-clock deadline of ",
                                       s.guard_.deadline_s,
                                       " s exceeded");
            throw RunError(std::move(f));
        }
    }

    // Span timing is done with explicit timestamps instead of nested
    // TraceSpans so adjacent stage boundaries share one clock read:
    // the decide span's end doubles as the evaluate span's start. At
    // SoA-kernel step times the clock reads *are* the obs cost, so
    // each saved read matters for the [obs] overhead budget.
    using ObsClock = std::chrono::steady_clock;
    const bool timed = s.orun_.obs != nullptr;
    ObsClock::time_point t_step0;
    if (timed)
        t_step0 = ObsClock::now();

    // Stage 1: fault-timeline advance.
    if (s.resilient_) {
        s.injector_->advanceTo(now_s);

        // Every fault whose onset just passed becomes a structured
        // event; the injector's timeline is sorted by onset, so the
        // newly struck ones are exactly the next struckCount() delta.
        if (s.orun_.obs != nullptr) {
            for (; s.seen_faults_ < s.injector_->struckCount();
                 ++s.seen_faults_) {
                const fault::FaultEvent &fe =
                    s.injector_->events()[s.seen_faults_];
                obs::Event e;
                e.time_s = fe.time_s;
                e.step = static_cast<long>(step);
                e.kind = "fault";
                e.subject = "circ" + std::to_string(fe.circulation);
                e.detail = fault::toString(fe.kind);
                e.fields = {
                    {"server", static_cast<double>(fe.server)},
                    {"magnitude", fe.magnitude},
                    {"duration_s", fe.duration_s}};
                s.orun_.obs->events().append(std::move(e));
            }
        }
    }

    // Stage 2: workload arrival and watchdog shaping.
    trace.stepInto(step, s.utils_);
    s.utils_.resize(servers);
    if (s.use_watchdog_)
        s.watchdog_->shapeInPlace(s.utils_, dt);

    // Stage 3: sensing / safe-mode assessment (on the previous
    // interval's possibly-corrupted readings).
    if (s.resilient_ && sm.enabled && s.have_readings_) {
        for (size_t c = 0; c < num_circ; ++c) {
            sched::SafeModeAction next = s.monitor_->assess(
                c, s.die_read_[c], s.flow_read_[c],
                s.commanded_flow_[c], dt);
            if (s.orun_.obs != nullptr && next != s.actions_[c]) {
                obs::Event e;
                e.time_s = now_s;
                e.step = static_cast<long>(step);
                e.kind = "safe_mode";
                e.subject = "circ" + std::to_string(c);
                e.detail =
                    std::string(safeModeActionName(s.actions_[c])) +
                    " -> " + safeModeActionName(next);
                s.orun_.obs->events().append(std::move(e));
            }
            s.actions_[c] = next;
        }
    }

    // Stage 4: scheduling decision — the session's control pipeline
    // (canonical per-policy stages from the PipelineFactory, or
    // custom control installed through setPipeline()).
    // The timestamp after this stage closes the sched.decide span and
    // opens the dc.evaluate one.
    if (s.pipeline_ == nullptr) {
        // Only a custom-control resume leaves the pipeline unset; the
        // engine cannot rebuild user control, so stepping without a
        // re-attach would silently change the run.
        RunFailure f;
        f.kind = FailureKind::ConfigError;
        f.step = step;
        f.stage = "decide";
        f.message =
            "session was resumed from a checkpoint taken under custom "
            "control; re-attach the pipeline with setPipeline() "
            "before stepping";
        throw RunError(std::move(f));
    }
    control::ControlContext cctx;
    cctx.step = step;
    cctx.dt_s = dt;
    cctx.dc = w_.dc;
    cctx.utils = &s.utils_;
    cctx.actions = s.resilient_ ? &s.actions_ : nullptr;
    cctx.margin_c = sm.margin_c;
    cctx.health = s.resilient_ ? &s.injector_->health() : nullptr;
    cctx.obs = s.orun_.obs;
    ObsClock::time_point t_decide0;
    if (timed)
        t_decide0 = ObsClock::now();
    s.pipeline_->run(cctx, s.decision_);
    ObsClock::time_point t_decide1;
    if (timed) {
        t_decide1 = ObsClock::now();
        obs::SpanRegistry::record(
            s.orun_.span_decide,
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t_decide1 - t_decide0)
                    .count()));
    }

    // The scheduling decision must be numerically sound before it
    // drives the datacenter: a NaN/inf setpoint (diverged optimizer
    // input, buggy controller) is caught here with its step and stage
    // instead of poisoning the summary averages silently.
    for (size_t c = 0; c < s.decision_.settings.size(); ++c) {
        const cluster::CoolingSetting &cs = s.decision_.settings[c];
        if (!std::isfinite(cs.t_in_c) || !std::isfinite(cs.flow_lph))
            throwDiverged(
                step, "decide",
                detail::concat("circulation ", c,
                               " cooling setting is not finite (t_in=",
                               cs.t_in_c, " C, flow=", cs.flow_lph,
                               " lph)"));
    }

    // Stage 5: datacenter evaluation.
    w_.dc->evaluateInto(s.decision_.utils, s.decision_.settings,
                        s.resilient_ ? &s.injector_->health() : nullptr,
                        s.state_);
    if (timed)
        obs::SpanRegistry::record(
            s.orun_.span_evaluate,
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    ObsClock::now() - t_decide1)
                    .count()));
    if (!std::isfinite(s.state_.teg_power_w) ||
        !std::isfinite(s.state_.cpu_power_w) ||
        !std::isfinite(s.state_.plant_power_w) ||
        !std::isfinite(s.state_.pump_power_w))
        throwDiverged(
            step, "evaluate",
            detail::concat("datacenter state is not finite (teg=",
                           s.state_.teg_power_w,
                           " W, cpu=", s.state_.cpu_power_w,
                           " W, plant=", s.state_.plant_power_w,
                           " W, pump=", s.state_.pump_power_w,
                           " W); the model diverged"));

    // Stage 6: stage feedback. First the control pipeline sees the
    // state its decision produced (the balancer's thermal-headroom
    // and TEG-power view feeds from here); then the true die
    // temperatures go to the watchdog (the CPU's own on-die sensor)
    // and the possibly-corrupted loop readings to the safety monitor
    // for the next interval.
    s.pipeline_->observe(cctx, s.state_);
    if (s.resilient_) {
        for (size_t c = 0; c < s.state_.circulations.size(); ++c) {
            const cluster::CirculationState &cs =
                s.state_.circulations[c];
            s.die_read_[c] = s.injector_->readDie(c, cs.max_die_c);
            s.flow_read_[c] =
                s.injector_->readFlow(c, cs.delivered_flow_lph);
            s.commanded_flow_[c] = s.decision_.settings[c].flow_lph;
        }
        s.have_readings_ = true;
        if (s.use_watchdog_)
            s.watchdog_->observe(s.state_.servers.die_temp_c);
    }

    // Stage 7: recording and accumulation.
    double teg_per = s.state_.teg_power_w / n;
    double cpu_per = s.state_.cpu_power_w / n;
    double t_in_mean = 0.0;
    for (const auto &cs : s.decision_.settings)
        t_in_mean += cs.t_in_c;
    t_in_mean /= static_cast<double>(s.decision_.settings.size());

    double max_die = 0.0;
    for (size_t c = 0; c < s.state_.circulations.size(); ++c) {
        max_die =
            std::max(max_die, s.state_.circulations[c].max_die_c);
        if (s.state_.circulations[c].all_safe)
            ++s.acc_.circ_safe_steps[c];
    }

    double util_mean = 0.0, util_max = 0.0;
    for (double u : s.utils_) {
        util_mean += u;
        util_max = std::max(util_max, u);
    }
    util_mean /= n;

    sim::Recorder &rec = *s.recorder_;
    rec.record(s.ch_.teg, teg_per);
    rec.record(s.ch_.cpu, cpu_per);
    rec.record(s.ch_.pre, cpu_per > 0.0 ? teg_per / cpu_per : 0.0);
    rec.record(s.ch_.tin, t_in_mean);
    rec.record(s.ch_.plant, s.state_.plant_power_w);
    rec.record(s.ch_.pump, s.state_.pump_power_w);
    rec.record(s.ch_.die, max_die);
    rec.record(s.ch_.umean, util_mean);
    rec.record(s.ch_.umax, util_max);

    size_t degraded_circs = 0;
    if (s.resilient_) {
        for (sched::SafeModeAction a : s.actions_)
            if (a != sched::SafeModeAction::Normal)
                ++degraded_circs;
        s.acc_.safe_mode_steps += degraded_circs;

        rec.record(s.ch_.faulted,
                   static_cast<double>(s.state_.faulted_servers));
        rec.record(s.ch_.lost, s.state_.teg_power_lost_w / n);
        rec.record(s.ch_.safe_mode,
                   static_cast<double>(degraded_circs));
        rec.record(s.ch_.throttled,
                   static_cast<double>(s.use_watchdog_
                                           ? s.watchdog_->numThrottled()
                                           : 0));
    }

    s.acc_.teg_j += s.state_.teg_power_w * dt;
    s.acc_.cpu_j += s.state_.cpu_power_w * dt;
    s.acc_.plant_j += s.state_.plant_power_w * dt;
    s.acc_.pump_j += s.state_.pump_power_w * dt;
    s.acc_.t_in_sum += t_in_mean;
    if (s.state_.all_safe)
        ++s.acc_.safe_steps;
    if (s.resilient_) {
        s.acc_.teg_lost_j += s.state_.teg_power_lost_w * dt;
        s.acc_.max_faulted =
            std::max(s.acc_.max_faulted, s.state_.faulted_servers);
    }

    // Stage 8: observability.
    if (s.orun_.obs != nullptr) {
        s.orun_.steps.add();
        s.orun_.max_die_hist.observe(max_die);
        s.orun_.teg_hist.observe(teg_per);
        if (s.use_watchdog_) {
            size_t trips = s.watchdog_->tripEvents();
            if (trips > s.seen_trips_) {
                obs::Event e;
                e.time_s = now_s;
                e.step = static_cast<long>(step);
                e.kind = "watchdog";
                e.subject = "cluster";
                e.detail = "thermal trip";
                e.fields = {
                    {"new_trips",
                     static_cast<double>(trips - s.seen_trips_)},
                    {"throttled_servers",
                     static_cast<double>(s.watchdog_->numThrottled())}};
                s.orun_.obs->events().append(std::move(e));
                s.seen_trips_ = trips;
            }
        }
    }

    if (timed)
        obs::SpanRegistry::record(
            s.orun_.span_step,
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    ObsClock::now() - t_step0)
                    .count()));

    ++s.cursor_;
}

RunResult
SimEngine::finish(SimSession &s) const
{
    expect(!s.finished_, "session already finished");
    expect(s.done(), "session has only evaluated ", s.cursor_, " of ",
           s.numSteps(), " steps; step() it to completion (or "
                         "checkpoint it) before finish()");
    s.finished_ = true;

    const size_t num_steps = s.numSteps();
    const double steps = static_cast<double>(num_steps);

    RunResult result;
    result.summary.policy = s.policy_;
    result.recorder = s.recorder_;

    RunSummary &sum = result.summary;
    const sim::Recorder &rec = *s.recorder_;
    const TimeSeries &teg_series = rec.series(s.ch_.teg);
    sum.avg_teg_w = teg_series.mean();
    sum.peak_teg_w = teg_series.max();
    sum.avg_cpu_w = rec.series(s.ch_.cpu).mean();
    sum.teg_energy_kwh = units::joulesToKwh(s.acc_.teg_j);
    sum.cpu_energy_kwh = units::joulesToKwh(s.acc_.cpu_j);
    sum.plant_energy_kwh = units::joulesToKwh(s.acc_.plant_j);
    sum.pump_energy_kwh = units::joulesToKwh(s.acc_.pump_j);
    sum.pre = s.acc_.cpu_j > 0.0 ? s.acc_.teg_j / s.acc_.cpu_j : 0.0;
    sum.safe_fraction =
        static_cast<double>(s.acc_.safe_steps) / steps;
    sum.avg_t_in_c = s.acc_.t_in_sum / steps;
    if (s.resilient_) {
        sum.fault_events = s.injector_->struckCount();
        sum.throttle_events =
            s.use_watchdog_ ? s.watchdog_->tripEvents() : 0;
        sum.throttled_work_server_hours =
            s.use_watchdog_
                ? s.watchdog_->deferredWorkSeconds() / 3600.0
                : 0.0;
        sum.teg_energy_lost_kwh = units::joulesToKwh(s.acc_.teg_lost_j);
        sum.safe_mode_steps = s.acc_.safe_mode_steps;
        sum.max_faulted_servers = s.acc_.max_faulted;
    }
    sum.circulation_safe_fraction.reserve(s.acc_.circ_safe_steps.size());
    for (size_t c : s.acc_.circ_safe_steps)
        sum.circulation_safe_fraction.push_back(
            static_cast<double>(c) / steps);
    validateSummary(sum);
    finishObsRun(s.orun_, rec, sum);
    return result;
}

void
SummaryAccumulator::visit(util::Archive &ar)
{
    ar.f64(teg_j);
    ar.f64(cpu_j);
    ar.f64(plant_j);
    ar.f64(pump_j);
    ar.f64(teg_lost_j);
    ar.f64(t_in_sum);
    ar.size(safe_steps);
    ar.size(safe_mode_steps);
    ar.size(max_faulted);
    ar.count(circ_safe_steps.size(), "checkpoint circulation count");
    for (size_t &c : circ_safe_steps)
        ar.size(c);
}

void
SimEngine::visitSession(SimSession &s, util::Archive &ar) const
{
    s.acc_.visit(ar);
    visitChannels(*s.recorder_, s.cursor_, ar);
    if (!s.resilient_)
        return;

    // The fault timeline itself is recomputed deterministically; only
    // the replay cursor's sensor latches and the feedback loops need
    // explicit state.
    const size_t num_circ = w_.dc->numCirculations();
    ar.count(num_circ, "checkpoint circulation count");
    // Re-run the timeline up to the last completed step before the
    // latches load: this re-arms every sensor-fault window exactly as
    // the original run did, after which only the value-dependent
    // stuck-at latches need explicit restore.
    if (ar.loading() && s.cursor_ > 0)
        s.injector_->advanceTo(static_cast<double>(s.cursor_ - 1) *
                               s.trace_->dt());
    for (size_t c = 0; c < num_circ; ++c) {
        s.injector_->dieSensor(c).visitLatch(ar);
        s.injector_->flowSensor(c).visitLatch(ar);
    }
    s.watchdog_->visit(ar);
    s.monitor_->visit(ar);
    for (size_t c = 0; c < num_circ; ++c) {
        ar.f64(s.die_read_[c].value);
        ar.boolean(s.die_read_[c].valid);
        ar.f64(s.flow_read_[c].value);
        ar.boolean(s.flow_read_[c].valid);
        ar.f64(s.commanded_flow_[c]);
    }
    ar.boolean(s.have_readings_);
    for (sched::SafeModeAction &a : s.actions_)
        sched::visitAction(ar, a);

    if (ar.loading()) {
        // Events struck before the checkpoint were already reported
        // by the run that wrote it; only post-resume strikes and
        // trips become new obs events.
        s.seen_faults_ = s.injector_->struckCount();
        s.seen_trips_ = s.watchdog_->tripEvents();
    }
}

void
SimEngine::saveCheckpoint(const SimSession &s,
                          const std::string &path) const
{
    expect(!s.finished_, "cannot checkpoint a finished session");

    CheckpointHeader h;
    h.config_fp = configFingerprint();
    h.trace_fp = s.trace_->fingerprint();
    h.policy = s.policy_ == sched::Policy::TegLoadBalance ? 1 : 0;
    h.resilient = s.resilient_;
    h.num_steps = s.numSteps();
    h.dt = s.trace_->dt();
    h.cursor = s.cursor_;
    // A not-yet-re-attached resumed session forwards the stage state
    // it was restored with unchanged.
    h.custom_control = s.custom_control_;
    h.stage_state = s.pipeline_ != nullptr ? s.pipeline_->captureState()
                                           : s.pending_state_;

    ByteWriter w;
    util::Archive ar(w);
    h.visit(ar);
    // Saving only reads the session; the visit is shared with resume().
    visitSession(const_cast<SimSession &>(s), ar);

    // Atomic temp + rename (util::atomicWriteFile): process death can
    // never leave a truncated checkpoint for resume() to trip over.
    const std::string &payload = w.data();
    ByteWriter file;
    file.raw(kMagic, sizeof(kMagic));
    file.u32(kCheckpointVersion);
    file.u64(payload.size());
    file.raw(payload.data(), payload.size());
    file.u64(payloadChecksum(payload.data(), payload.size()));
    util::atomicWriteFile(path, file.data());
    checkpointEvent(s.cursor_, "save " + path);
}

SimSession
SimEngine::resume(const std::string &path,
                  const workload::UtilizationTrace &trace) const
{
    std::ifstream is(path, std::ios::binary);
    expect(is.good(), "cannot open checkpoint `", path, "'");
    std::string file((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());

    const size_t header_size = sizeof(kMagic) + 4 + 8;
    expect(file.size() >= header_size + 8,
           "checkpoint `", path, "' is too short to be valid");
    expect(std::memcmp(file.data(), kMagic, sizeof(kMagic)) == 0,
           "`", path, "' is not an H2P checkpoint (bad magic)");

    ByteReader head(file, sizeof(kMagic), file.size());
    uint32_t version = head.u32();
    expect(version == kCheckpointVersion, "checkpoint version ",
           version, " is not supported (this build reads version ",
           kCheckpointVersion, ")");
    uint64_t payload_size = head.u64();
    expect(file.size() == header_size + payload_size + 8,
           "checkpoint `", path, "' is truncated or has trailing "
                                 "garbage");

    const size_t payload_end = header_size + payload_size;
    ByteReader foot(file, payload_end, file.size());
    uint64_t stored_sum = foot.u64();
    expect(stored_sum == payloadChecksum(file.data() + header_size,
                                         payload_size),
           "checkpoint `", path, "' failed its checksum; the file is "
                                 "corrupt");

    ByteReader r(file, header_size, payload_end);
    util::Archive ar(r);
    CheckpointHeader h;
    h.visit(ar);
    expect(h.config_fp == configFingerprint(),
           "checkpoint was taken under a different configuration "
           "(fault scenario, safe mode, topology or optimizer "
           "parameters differ); refusing to resume");
    expect(h.trace_fp == trace.fingerprint(),
           "checkpoint was taken against a different workload trace; "
           "refusing to resume");
    expect(h.policy <= 1, "checkpoint carries unknown policy ",
           h.policy);
    expect(h.num_steps == trace.numSteps() && h.dt == trace.dt(),
           "checkpoint trace shape mismatch");
    expect(h.cursor <= h.num_steps, "checkpoint cursor ", h.cursor,
           " exceeds the trace length ", h.num_steps);

    SimSession s = start(trace, h.policy == 1
                                    ? sched::Policy::TegLoadBalance
                                    : sched::Policy::TegOriginal);
    H2P_ASSERT(s.resilient_ == h.resilient,
               "config fingerprint matched but pipeline shape did "
               "not");
    s.cursor_ = h.cursor;

    if (h.custom_control) {
        // The engine cannot rebuild user-supplied control. Leave the
        // decide stage empty and stash the checkpointed stage state;
        // stepping before setPipeline() re-attaches is refused loudly
        // (see stepOnce).
        s.pipeline_.reset();
        s.custom_control_ = true;
        s.pending_state_ = std::move(h.stage_state);
    } else {
        s.pipeline_->applyState(h.stage_state);
    }

    visitSession(s, ar);
    expect(r.exhausted(),
           "checkpoint has trailing bytes; the file is corrupt");
    checkpointEvent(s.cursor_, "restore " + path);
    return s;
}

void
SimEngine::checkpointEvent(size_t step, std::string detail) const
{
    if (w_.obs == nullptr)
        return;
    obs::Event e;
    e.step = static_cast<long>(step);
    e.kind = "checkpoint";
    e.subject = "system";
    e.detail = std::move(detail);
    e.fields = {{"step", static_cast<double>(step)}};
    w_.obs->events().append(std::move(e));
}

} // namespace core
} // namespace h2p
