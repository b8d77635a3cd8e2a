/**
 * @file
 * The three benchmark workloads. Each builds its inputs from the run
 * seed only, sets up from scratch several times (the look-up table
 * cache is cleared in between, so every set-up pays what a fresh
 * process pays), warms up, measures for the requested window, and
 * then checks what the program produced against an independent
 * in-process reference run.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/config_io.h"
#include "core/h2p_system.h"
#include "core/sweep_engine.h"
#include "obs/observability.h"
#include "perfbench/bench.h"
#include "sched/lookup_cache.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_broker.h"
#include "sim/config.h"
#include "util/error.h"
#include "util/socket.h"
#include "workload/trace_gen.h"

namespace perfbench {

using namespace h2p;

namespace {

/** From-scratch set-ups per run; setup_s is their median. */
constexpr int kSetups = 9;

/** Scratch directory for traced runs' [obs] exports (in the checkout). */
const char *const kTraceDir = ".bench_build/perfbench-trace";

/**
 * Build a workload state @p kSetups times from scratch, recording each
 * duration, and keep the last one. The previous state is destroyed and
 * the process-wide look-up table cache emptied before each build.
 */
template <typename Build>
auto
setUp(Report &report, Build build) -> decltype(build())
{
    decltype(build()) state;
    for (int i = 0; i < kSetups; ++i) {
        state.reset();
        sched::LookupSpaceCache::instance().clear();
        const Clock::time_point t0 = Clock::now();
        state = build();
        report.setup_s.push_back(secondsSince(t0));
    }
    return state;
}

/** Untimed warm-up length before the measured window, seconds. */
double
warmupSeconds(const Options &options)
{
    return std::min(1.0, 0.05 * options.seconds);
}

/**
 * A scenario the repository ships under examples/configs, read from the
 * checkout the benchmark runs in, so the workloads track those files.
 */
sim::Config
shippedIni(const std::string &name)
{
    return sim::Config::load("examples/configs/" + name);
}

/** @p ini as a simulator config, with its own telemetry export off. */
core::H2PConfig
scenario(const sim::Config &ini)
{
    core::H2PConfig config = core::configFromIni(ini);
    config.obs = obs::ObsParams{};
    return config;
}

workload::UtilizationTrace
drasticTrace(uint64_t seed, size_t servers, double hours)
{
    workload::TraceGenerator gen(seed);
    return gen.generate(workload::TraceGenParams::forProfile(
                            workload::TraceProfile::Drastic),
                        servers, hours * 3600.0);
}

const sched::Policy kPolicies[2] = {sched::Policy::TegOriginal,
                                    sched::Policy::TegLoadBalance};

} // namespace

// ------------------------------------------------ paper-day, fault-sweep

namespace {

/**
 * A batch of independent day-long runs (drastic utilization, 288
 * five-minute intervals) executed by the supervised sweep engine on
 * kBatchWorkers workers, each run on a freshly built system. The grid
 * runs `traces` distinct traces, each under `fault_seeds` fault seeds
 * of its own, under both policies; one unit is one run (one grid
 * point). A run's cost follows its trace and fault mix, so the grid is
 * wide enough that its mean cost barely moves with the run seed.
 *
 * Runs are parallel at run level rather than threaded per step, since
 * a per-step fork-join stalls on any preempted core. There is one
 * worker per vCPU of a 4-vCPU host: on a shared host the CPU time of
 * the same run depends on the core it lands on, and one or two workers
 * made a run's figure follow the cores they happened to get.
 */
constexpr size_t kBatchWorkers = 4;

struct BatchSpec
{
    /** Scenario file under examples/configs. */
    const char *ini;
    size_t traces;
    size_t fault_seeds;
    /** The grid must see injected faults (resilience scenario). */
    bool faulted;
};

/**
 * paper-day: the paper's evaluation (Sec. V-C, paper.ini) — 1,000
 * servers in 50-server circulations, both policies, over eight traces.
 */
const BatchSpec kPaperDay = {"paper.ini", 8, 1, false};

/**
 * fault-sweep: the resilience scenario (resilience.ini) —
 * accelerated-aging pump, TEG, chiller and sensor faults with
 * safe-mode control and the thermal-trip watchdog — on 200 servers,
 * across eight traces with sixteen fault seeds each (128 fault mixes).
 */
const BatchSpec kFaultSweep = {"resilience.ini", 8, 16, true};

struct Batch
{
    std::vector<workload::UtilizationTrace> traces;
    std::vector<core::SweepPoint> grid;
    std::unique_ptr<core::SweepEngine> engine;
};

std::string
pointCsv(size_t i)
{
    return std::string(kTraceDir) + "/point-" + std::to_string(i) +
           ".csv";
}

Report
runBatch(const Options &opt, const BatchSpec &spec)
{
    Report report;
    if (opt.trace)
        std::filesystem::create_directories(kTraceDir);
    auto state = setUp(report, [&] {
        auto s = std::make_unique<Batch>();
        const core::H2PConfig base = scenario(shippedIni(spec.ini));
        for (size_t k = 0; k < spec.traces; ++k)
            s->traces.push_back(drasticTrace(
                subSeed(opt.seed, k), base.datacenter.num_servers, 24.0));
        const size_t points = spec.traces * spec.fault_seeds * 2;
        for (size_t i = 0; i < points; ++i) {
            core::SweepPoint pt;
            pt.config = base;
            pt.config.faults.seed = subSeed(opt.seed, 100 + i / 2);
            if (opt.trace) {
                pt.config.obs.enabled = true;
                pt.config.obs.csv_path = pointCsv(i);
            }
            pt.trace = &s->traces[i / (2 * spec.fault_seeds)];
            pt.policy = kPolicies[i % 2];
            pt.label = "point=" + std::to_string(i);
            s->grid.push_back(std::move(pt));
        }
        core::SweepOptions so;
        so.workers = kBatchWorkers;
        so.keep_recorders = false;
        s->engine = std::make_unique<core::SweepEngine>(so);
        core::H2PSystem prime(base); // samples the look-up table
        return s;
    });

    std::vector<core::RunSummary> first;
    auto sweep = [&](bool measured) {
        // The workers are idle between sweeps, so the process's CPU
        // time across one is the sweep's.
        const double cpu0 = processCpuNs();
        const core::SweepResult r = state->engine->run(state->grid);
        if (measured)
            report.cpu_ms.push_back((processCpuNs() - cpu0) / 1e6 /
                                    static_cast<double>(r.points.size()));
        double points_ns = 0.0;
        for (const core::SweepPointResult &p : r.points) {
            const bool ok = p.status == core::PointStatus::Completed;
            if (measured) {
                ++report.attempted;
                report.failed += ok ? 0 : 1;
                report.unit_ms.push_back(p.duration_s * 1e3);
            }
            report.check(ok, p.label + " " + core::toString(p.status));
            points_ns += p.duration_s * 1e9;
        }
        if (first.empty()) {
            for (const core::SweepPointResult &p : r.points)
                first.push_back(p.summary);
        } else {
            for (size_t i = 0; i < r.points.size(); ++i)
                report.check(sameSummary(first[i], r.points[i].summary),
                             "sweep point not reproducible");
        }
        if (opt.trace) {
            const double engine_before = report.layers.step_ns;
            for (size_t i = 0; i < r.points.size(); ++i)
                report.layers.addEngineCsv(pointCsv(i));
            // Worker time not spent inside any point is the sweep
            // scheduler's (claiming, ordering, idling at the tail).
            report.layers.dispatch_ns +=
                r.wall_s * 1e9 * static_cast<double>(r.workers) -
                points_ns;
            report.layers.session_ns +=
                points_ns - (report.layers.step_ns - engine_before);
            report.layers.units += r.points.size();
        }
    };

    const Clock::time_point warm0 = Clock::now();
    do
        sweep(false);
    while (secondsSince(warm0) < warmupSeconds(opt));
    report.layers = Layers{};

    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < opt.seconds)
        sweep(true);
    report.window_s = secondsSince(start);

    size_t fault_events = 0;
    for (const core::RunSummary &s : first) {
        fault_events += s.fault_events;
        report.check(plausible(s), "sweep summary implausible");
    }
    report.check((fault_events > 0) == spec.faulted,
                 "sweep fault injection does not match the scenario");
    // Reference: a standalone serial run of the first point of each
    // policy must equal the sweep's result bit for bit.
    for (size_t i = 0; i < 2; ++i) {
        core::H2PConfig c = state->grid[i].config;
        c.obs = obs::ObsParams{};
        core::H2PSystem ref(c);
        report.check(sameSummary(ref.run(*state->grid[i].trace,
                                         state->grid[i].policy)
                                     .summary,
                                 first[i]),
                     "sweep point differs from a standalone run");
    }
    return report;
}

} // namespace

Report
runPaperDay(const Options &opt)
{
    return runBatch(opt, kPaperDay);
}

Report
runFaultSweep(const Options &opt)
{
    return runBatch(opt, kFaultSweep);
}

// --------------------------------------------------------- twin-service

namespace {

/**
 * The digital-twin daemon under bench/service_loadgen's `mixed` traffic:
 * kConnections connections, each keeping kDepth requests in flight from
 * the repeating blend ping, `step <id> 1`, `query <id> state`,
 * `query <id> state`, against one twin of its own held for the whole
 * run. The twins are paper-scale (paper.ini: 1,000 servers, a drastic
 * trace seeded per connection, the two policies alternating across
 * connections). One unit is one request of the blend: its wall time
 * runs from its send to its reply, and its CPU time is the daemon's
 * (every thread but the client's) over a block of kBatch replies.
 *
 * As in the loadgen, a twin's trace ends (144 steps) long before the
 * window does and the blend's later steps are boundary no-ops. The
 * warm-up lasts until every twin has taken its last step, so the
 * measured traffic is the same throughout the window. Recycling twins
 * instead was measured and dropped: opening a 1,000-server twin costs
 * as much broker time as all of its steps, so reopenings stall the
 * workers in bursts and the latency percentiles swing with where they
 * fall.
 *
 * One client thread multiplexes every connection through a poller, so
 * the clients take one core and the daemon — its I/O thread and
 * kWorkers workers — the other three of a 4-vCPU host. Sixteen
 * connections is the service CI smoke's count; with depth 8 it keeps
 * 128 requests queued, enough that the reactor, the per-connection
 * strands and the write queues are never idle.
 */
constexpr size_t kConnections = 16;
constexpr size_t kDepth = 8;
constexpr size_t kWorkers = 2;
/**
 * Replies per CPU-time sample: other threads' CPU clocks advance at
 * scheduler ticks, so a sample spans many ticks (~40 ms at 400k req/s).
 */
constexpr uint64_t kBatch = 16384;

enum class Kind
{
    Open,
    Ping,
    Step,
    Query,
    Record,
    Close
};

struct Sent
{
    Kind kind;
    Clock::time_point at;
    /** Sent inside the measured window. */
    bool measured;
    /** The cursor a step's reply must report. */
    size_t cursor;
};

struct Conn
{
    std::string policy;
    /** The twin's configuration (no telemetry export). */
    sim::Config ini;
    util::Fd fd;
    service::FrameDecoder decoder;
    std::string session;
    size_t steps = 0;
    size_t stepped = 0;
    /** The reply to the trace's last step has arrived. */
    bool finished = false;
    /** Position in the request blend. */
    size_t mix = 0;
    std::deque<Sent> in_flight;
    /** Frames not yet written. */
    std::string out;
    /** The twin's per-step record (`query <id> jsonl`). */
    std::string record;
    /** Summed send-to-reply time of every request, and their count. */
    double latency_ns = 0.0;
    uint64_t replies = 0;
    /** The twin's [obs] export, traced runs only. */
    std::string csv_path;
};

struct Twin
{
    std::unique_ptr<obs::Observability> obs;
    std::unique_ptr<service::SessionBroker> broker;
    std::unique_ptr<service::Server> server;
    std::vector<std::unique_ptr<Conn>> conns;
};

void
send(Conn &c, Kind kind, const std::string &payload, bool measured,
     size_t cursor = 0)
{
    c.out += service::encodeFrame(payload);
    c.in_flight.push_back({kind, Clock::now(), measured, cursor});
}

void
flush(Conn &c)
{
    if (c.out.empty())
        return;
    util::writeAll(c.fd, c.out.data(), c.out.size());
    c.out.clear();
}

/** Keep kDepth requests of the blend in flight on @p c. */
void
topUp(Conn &c, bool measured)
{
    while (c.in_flight.size() < kDepth) {
        switch (c.mix++ % 4) {
        case 0:
            send(c, Kind::Ping, "ping\n", measured);
            break;
        case 1:
            c.stepped = std::min(c.stepped + 1, c.steps);
            send(c, Kind::Step, "step " + c.session + " 1\n", measured,
                 c.stepped);
            break;
        default:
            send(c, Kind::Query, "query " + c.session + " state\n",
                 measured);
        }
    }
    flush(c);
}

void
onReply(Conn &c, const std::string &payload, Report &report)
{
    expect(!c.in_flight.empty(), "reply without a request");
    const Sent s = c.in_flight.front();
    c.in_flight.pop_front();
    const double ns = nsBetween(s.at, Clock::now());
    c.latency_ns += ns;
    ++c.replies;
    const service::Response r = service::Response::parse(payload);
    bool ok = r.ok;
    switch (s.kind) {
    case Kind::Open:
        expect(ok && r.args.size() == 2, "open failed: ", r.message);
        c.session = r.args[0];
        c.steps = std::stoul(r.args[1]);
        return;
    case Kind::Ping:
        ok = ok && !r.args.empty() && r.args[0] == "pong";
        break;
    case Kind::Step:
        ok = ok && r.args.size() == 2 &&
             r.args[0] == std::to_string(s.cursor);
        c.finished = c.finished || (ok && s.cursor == c.steps);
        break;
    case Kind::Query:
        ok = ok && !r.body.empty() && r.body.front() == '{';
        break;
    case Kind::Record:
        report.check(ok, "query jsonl failed: " + r.message);
        c.record = r.body;
        return;
    case Kind::Close:
        report.check(ok && !r.args.empty() && r.args[0] == "finished",
                     "close did not finish the twin");
        return;
    }
    if (s.measured) {
        ++report.attempted;
        report.failed += ok ? 0 : 1;
        if (ok)
            report.unit_ms.push_back(ns / 1e6);
    } else {
        report.check(ok, "twin-service reply was an error");
    }
}

/** Read what one connection holds (blocking) and handle its replies. */
void
receive(Conn &c, Report &report)
{
    char buf[1 << 16];
    size_t got = 0;
    expect(util::readSome(c.fd, buf, sizeof buf, got) == util::IoStatus::Ok,
           "daemon hung up");
    c.decoder.feed(buf, got);
    for (std::string payload; c.decoder.next(payload);)
        onReply(c, payload, report);
}

double
brokerSpanNs(const obs::Observability &obs)
{
    double total = 0.0;
    for (const obs::SpanRegistry::Stat &s : obs.spans().snapshot())
        if (s.name.rfind("service.", 0) == 0)
            total += static_cast<double>(s.total_ns);
    return total;
}

} // namespace

Report
runTwinService(const Options &opt)
{
    Report report;
    if (opt.trace)
        std::filesystem::create_directories(kTraceDir);
    const std::string socket_path = ".bench_build/perfbench-" +
                                    std::to_string(::getpid()) + ".sock";

    auto state = setUp(report, [&] {
        auto s = std::make_unique<Twin>();
        s->obs = std::make_unique<obs::Observability>(obs::ObsParams{});
        service::BrokerOptions bo;
        bo.max_sessions = kConnections;
        bo.obs = opt.trace ? s->obs.get() : nullptr;
        s->broker = std::make_unique<service::SessionBroker>(bo);
        service::ServerOptions so;
        so.workers = kWorkers;
        s->server = std::make_unique<service::Server>(socket_path,
                                                      s->broker.get(), so);
        const sim::Config paper = shippedIni("paper.ini");
        for (size_t i = 0; i < kConnections; ++i) {
            auto c = std::make_unique<Conn>();
            c->policy = i % 2 == 0 ? "original" : "balance";
            c->ini = paper;
            c->ini.set("trace", "seed", std::to_string(subSeed(opt.seed, i)));
            c->ini.set("trace", "servers",
                       c->ini.getString("datacenter", "num_servers"));
            sim::Config open_ini = c->ini;
            if (opt.trace) {
                c->csv_path = std::string(kTraceDir) + "/twin-" +
                              std::to_string(i) + ".csv";
                open_ini.set("obs", "enabled", "1");
                open_ini.set("obs", "csv_path", c->csv_path);
            }
            std::ostringstream body;
            open_ini.write(body);
            service::Request open;
            open.verb = "open";
            open.args = {c->policy};
            open.body = body.str();
            c->fd = util::unixConnect(socket_path);
            send(*c, Kind::Open, open.serialize(), false);
            flush(*c);
            s->conns.push_back(std::move(c));
        }
        // The opens build their twins concurrently on the workers.
        for (auto &c : s->conns)
            while (c->session.empty())
                receive(*c, report);
        return s;
    });

    const double broker_before = brokerSpanNs(*state->obs);
    util::Poller poller;
    for (size_t i = 0; i < state->conns.size(); ++i) {
        Conn &c = *state->conns[i];
        c.latency_ns = 0.0;
        c.replies = 0;
        poller.add(c.fd, util::Poller::kRead, i);
    }
    auto pump = [&](bool measured) {
        for (auto &c : state->conns)
            topUp(*c, measured);
        std::vector<util::Poller::Event> events;
        poller.wait(events, 1000);
        for (const util::Poller::Event &e : events)
            receive(*state->conns[e.key], report);
    };
    auto allFinished = [&] {
        return std::all_of(state->conns.begin(), state->conns.end(),
                           [](const auto &c) { return c->finished; });
    };

    const Clock::time_point warm0 = Clock::now();
    while (secondsSince(warm0) < warmupSeconds(opt) || !allFinished())
        pump(false);
    // The daemon's CPU time is the process's less this (the client's)
    // thread; it is sampled per block of kBatch replies.
    auto daemonCpuNs = [] { return processCpuNs() - threadCpuNs(); };
    const Clock::time_point start = Clock::now();
    uint64_t batch_from = report.attempted;
    double batch_cpu = daemonCpuNs();
    while (secondsSince(start) < opt.seconds) {
        pump(true);
        const uint64_t n = report.attempted - batch_from;
        if (n >= kBatch) {
            const double cpu = daemonCpuNs();
            report.cpu_ms.push_back((cpu - batch_cpu) / 1e6 /
                                    static_cast<double>(n));
            batch_from = report.attempted;
            batch_cpu = cpu;
        }
    }
    report.window_s = secondsSince(start);

    // Let the window's requests come back, then fetch every twin's
    // record and close it.
    for (auto &c : state->conns) {
        send(*c, Kind::Record, "query " + c->session + " jsonl\n", false);
        send(*c, Kind::Close, "close " + c->session + "\n", false);
        flush(*c);
    }
    for (auto &c : state->conns)
        while (!c->in_flight.empty())
            receive(*c, report);

    if (opt.trace) {
        const double broker_ns = brokerSpanNs(*state->obs) - broker_before;
        double latency_ns = 0.0;
        for (const auto &c : state->conns) {
            latency_ns += c->latency_ns;
            report.layers.units += c->replies;
            report.layers.addEngineCsv(c->csv_path);
        }
        report.layers.dispatch_ns = latency_ns - broker_ns;
        report.layers.session_ns = broker_ns - report.layers.step_ns;
    }

    // Reference: each twin's per-step record must be byte for byte
    // what an in-process run of the same configuration records.
    for (const auto &c : state->conns) {
        const workload::UtilizationTrace trace =
            core::makeTrace(core::traceRequestFromIni(c->ini));
        core::H2PSystem ref(core::configFromIni(c->ini));
        const core::RunResult r =
            ref.run(trace, c->policy == "original"
                               ? sched::Policy::TegOriginal
                               : sched::Policy::TegLoadBalance);
        report.check(plausible(r.summary),
                     "twin-service summary implausible");
        std::ostringstream os;
        r.recorder->writeJsonl(os);
        report.check(c->record == os.str(),
                     "twin-service record differs from in-process");
    }
    return report;
}

// -------------------------------------------------------------- helpers

uint64_t
subSeed(uint64_t seed, uint64_t k)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (z ^ (z >> 31)) & 0x7FFFFFFFull; // fits every INI parser
}

bool
sameSummary(const core::RunSummary &a, const core::RunSummary &b)
{
    return a.avg_teg_w == b.avg_teg_w && a.peak_teg_w == b.peak_teg_w &&
           a.avg_cpu_w == b.avg_cpu_w && a.pre == b.pre &&
           a.teg_energy_kwh == b.teg_energy_kwh &&
           a.cpu_energy_kwh == b.cpu_energy_kwh &&
           a.plant_energy_kwh == b.plant_energy_kwh &&
           a.pump_energy_kwh == b.pump_energy_kwh &&
           a.safe_fraction == b.safe_fraction &&
           a.avg_t_in_c == b.avg_t_in_c &&
           a.fault_events == b.fault_events &&
           a.throttle_events == b.throttle_events &&
           a.teg_energy_lost_kwh == b.teg_energy_lost_kwh &&
           a.safe_mode_steps == b.safe_mode_steps &&
           a.circulation_safe_fraction == b.circulation_safe_fraction;
}

bool
plausible(const core::RunSummary &s)
{
    const double v[] = {s.avg_teg_w,      s.peak_teg_w,
                        s.avg_cpu_w,      s.pre,
                        s.teg_energy_kwh, s.cpu_energy_kwh,
                        s.safe_fraction,  s.avg_t_in_c};
    for (double x : v)
        if (!std::isfinite(x))
            return false;
    return s.avg_teg_w > 0.0 && s.avg_teg_w <= s.peak_teg_w &&
           s.avg_teg_w < s.avg_cpu_w && s.pre > 0.0 && s.pre < 1.0 &&
           s.safe_fraction >= 0.0 && s.safe_fraction <= 1.0;
}

void
Layers::addSpan(const std::string &name, uint64_t count, double total_ns)
{
    if (name == "step") {
        step_ns += total_ns;
        steps += count;
    } else if (name == "sched.decide") {
        decide_ns += total_ns;
    } else if (name == "dc.evaluate") {
        evaluate_ns += total_ns;
    }
}

void
Layers::addCounter(const std::string &name, uint64_t value)
{
    if (name == "optimizer.cache_hits")
        cache_hits += value;
    else if (name == "optimizer.cache_misses")
        cache_misses += value;
}

void
Layers::addEngineCsv(const std::string &path)
{
    std::ifstream in(path);
    expect(in.good(), "missing [obs] export ", path);
    // metric,kind,count,value,sum,min,max
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> f;
        std::istringstream ls(line);
        for (std::string cell; std::getline(ls, cell, ',');)
            f.push_back(cell);
        if (f.size() >= 5 && f[1] == "span_ns")
            addSpan(f[0], std::stoull(f[2]), std::stod(f[4]));
        else if (f.size() >= 4 && f[1] == "counter")
            addCounter(f[0], std::stoull(f[3]));
    }
    in.close();
    std::remove(path.c_str());
}

} // namespace perfbench
