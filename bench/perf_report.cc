/**
 * @file
 * Hot-path performance report. Times the simulation's three hot paths
 * — look-up space construction, per-circulation cooling decisions
 * (plus safe mode's coldest fallback against a full slice scan) and
 * whole-datacenter step evaluation (64/256/1024 servers) — against a
 * bench-local emulation of the pre-optimization code path (slices
 * materialized point by point through trilinear interpolation,
 * per-step allocation, no decision cache), and
 * writes the measurements to
 * bench_results/BENCH_hotpath.json so future changes have a perf
 * trajectory to compare against. The same file gets trace generation
 * (the set-up of the paper's batch) timed on every usable CPU and on
 * one.
 *
 * A second section measures batch throughput: a 16-point sweep run
 * serially versus through core::SweepEngine at 1/4/8 workers,
 * verifying bit-identical summaries along the way, written to
 * bench_results/BENCH_sweep.json.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "bench/bench_common.h"
#include "cluster/datacenter.h"
#include "cluster/server.h"
#include "control/stages.h"
#include "core/h2p_system.h"
#include "core/sweep_engine.h"
#include "fault/fault_injector.h"
#include "sched/cooling_optimizer.h"
#include "sched/lookup_space.h"
#include "thermal/teg.h"
#include "util/bytes.h"
#include "util/interpolate.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/trace_gen.h"

namespace {

using namespace h2p;
using Clock = std::chrono::steady_clock;

/** Keeps the optimizer from dead-code-eliminating a measured loop. */
volatile double g_sink = 0.0;

/** The datacenter's default natural-water cold source, C. */
const double kColdC = cluster::DatacenterParams{}.cold_source_c;

/**
 * Nanoseconds per call of @p fn, measured by growing the batch size
 * until a batch runs for at least @p min_s seconds.
 */
template <typename Fn>
double
nsPerOp(Fn &&fn, double min_s = 0.2)
{
    fn(); // warm caches before timing
    size_t iters = 1;
    for (;;) {
        auto t0 = Clock::now();
        for (size_t i = 0; i < iters; ++i)
            fn();
        double s = std::chrono::duration<double>(Clock::now() - t0)
                       .count();
        if (s >= min_s)
            return s * 1e9 / static_cast<double>(iters);
        // Aim straight for the target batch instead of doubling.
        double scale = s > 0.0 ? (min_s * 1.25) / s : 64.0;
        iters = std::max(iters + 1,
                         static_cast<size_t>(
                             static_cast<double>(iters) * scale));
    }
}

/**
 * The pre-optimization slice: every (flow x T_in) grid point at
 * @p util through the full trilinear cpuTemp()/outletTemp() queries,
 * which LookupSpace::forEachInSlice's node tables replaced.
 */
std::vector<sched::LookupPoint>
pointwiseSlice(const sched::LookupSpace &space, double util)
{
    const sched::LookupSpaceParams &lp = space.params();
    const GridAxis af(lp.flow_min_lph, lp.flow_max_lph, lp.flow_points);
    const GridAxis at(lp.tin_min_c, lp.tin_max_c, lp.tin_points);
    std::vector<sched::LookupPoint> slice;
    slice.reserve(af.count() * at.count());
    for (size_t j = 0; j < af.count(); ++j) {
        for (size_t k = 0; k < at.count(); ++k) {
            sched::LookupPoint pt;
            pt.util = util;
            pt.flow_lph = af.coord(j);
            pt.t_in_c = at.coord(k);
            pt.t_cpu_c = space.cpuTemp(util, pt.flow_lph, pt.t_in_c);
            pt.t_out_c = space.outletTemp(util, pt.flow_lph, pt.t_in_c);
            slice.push_back(pt);
        }
    }
    return slice;
}

/**
 * The pre-optimization cooling decision: materialize the whole slice
 * at the planning utilization point by point, copy the band into a
 * second vector, then scan — the arithmetic and allocation pattern
 * the table-backed, visitor-based CoolingOptimizer::choose replaced.
 */
sched::OptimizerResult
sliceChoose(const sched::LookupSpace &space,
            const thermal::TegModule &teg,
            const sched::OptimizerParams &p, double plan_util)
{
    sched::OptimizerResult best;
    bool found = false;
    auto consider = [&](const sched::LookupPoint &pt) {
        double power = teg.powerFromTemps(pt.t_out_c, kColdC,
                                          pt.flow_lph);
        if (!found || power > best.teg_power_w) {
            found = true;
            best.setting.t_in_c = pt.t_in_c;
            best.setting.flow_lph = pt.flow_lph;
            best.teg_power_w = power;
            best.t_cpu_c = pt.t_cpu_c;
        }
    };

    std::vector<sched::LookupPoint> slice =
        pointwiseSlice(space, plan_util);
    std::vector<sched::LookupPoint> in_band;
    for (const sched::LookupPoint &pt : slice)
        if (std::abs(pt.t_cpu_c - p.t_safe_c) <= p.band_c)
            in_band.push_back(pt);
    best.candidates = in_band.size();
    for (const sched::LookupPoint &pt : in_band)
        consider(pt);
    if (!found) {
        best.fallback = true;
        for (const sched::LookupPoint &pt : slice)
            if (pt.t_cpu_c <= p.t_safe_c + p.band_c)
                consider(pt);
    }
    if (!found) {
        // Coldest fallback: lowest predicted CPU temperature.
        double coldest = 1e300;
        for (const sched::LookupPoint &pt : slice) {
            if (pt.t_cpu_c < coldest) {
                coldest = pt.t_cpu_c;
                best.setting.t_in_c = pt.t_in_c;
                best.setting.flow_lph = pt.flow_lph;
                best.teg_power_w = teg.powerFromTemps(
                    pt.t_out_c, kColdC, pt.flow_lph);
                best.t_cpu_c = pt.t_cpu_c;
            }
        }
    }
    return best;
}

/**
 * The coldest fallback as it was before the candidate lists: the
 * first strict CPU-temperature minimum over the whole slice through
 * forEachInSlice, which LookupSpace::coldestInSlice replaced.
 */
sched::OptimizerResult
fullScanColdest(const sched::LookupSpace &space,
                const thermal::TegModule &teg, double plan_util)
{
    sched::LookupPoint coldest;
    bool have = false;
    space.forEachInSlice(plan_util, [&](const sched::LookupPoint &pt) {
        if (!have || pt.t_cpu_c < coldest.t_cpu_c) {
            coldest = pt;
            have = true;
        }
    });
    sched::OptimizerResult best;
    best.fallback = true;
    best.setting.t_in_c = coldest.t_in_c;
    best.setting.flow_lph = coldest.flow_lph;
    best.teg_power_w =
        teg.powerFromTemps(coldest.t_out_c, kColdC, coldest.flow_lph);
    best.t_cpu_c = coldest.t_cpu_c;
    return best;
}

/**
 * The pre-optimization step: per-circulation utilization copies, a
 * slice-materializing decision per loop, and a freshly allocated
 * DatacenterState per call.
 */
double
baselineStep(const cluster::Datacenter &dc,
             const sched::LookupSpace &space,
             const thermal::TegModule &teg,
             const sched::OptimizerParams &p,
             const std::vector<double> &utils)
{
    std::vector<double> balanced = utils;
    std::vector<cluster::CoolingSetting> settings;
    settings.reserve(dc.numCirculations());
    size_t offset = 0;
    for (size_t c = 0; c < dc.numCirculations(); ++c) {
        size_t n = dc.circulationSize(c);
        std::vector<double> group(utils.begin() + offset,
                                  utils.begin() + offset + n);
        double mean = std::accumulate(group.begin(), group.end(), 0.0) /
                      static_cast<double>(n);
        std::fill(balanced.begin() + offset,
                  balanced.begin() + offset + n, mean);
        settings.push_back(sliceChoose(space, teg, p, mean).setting);
        offset += n;
    }
    cluster::DatacenterState state;
    dc.evaluateInto(balanced, settings, nullptr, state);
    return state.teg_power_w;
}

struct StepRow
{
    size_t servers = 0;
    double baseline_ns = 0.0;
    double fast_ns = 0.0;
};

/** Bitwise equality of every RunSummary::visit field. */
bool
sameSummary(const core::RunSummary &a, const core::RunSummary &b)
{
    return util::archiveBytes(a) == util::archiveBytes(b);
}

std::string
jsonNum(double v)
{
    std::ostringstream os;
    os << std::setprecision(6) << v;
    return os.str();
}

} // namespace

int
main()
{
    using namespace h2p;

    // Host view vs process view: under CPU affinity (taskset, CI
    // runners, pinned containers) hardwareThreads() reports what
    // *this process* may use, which used to land here as
    // host_hardware_threads = 1 on big machines. Report both.
    const size_t hw = util::hostHardwareThreads();
    const size_t usable = util::hardwareThreads();
    std::cout << "Hot-path perf report (host hardware threads: " << hw
              << ", usable by this process: " << usable << ")\n\n";

    cluster::Server server;
    thermal::TegModule teg(server.params().tegs_per_server,
                           server.params().teg);

    // ------------------------------------------------- lookup build
    double lookup_ns = nsPerOp(
        [&] {
            sched::LookupSpace s(server);
            g_sink = g_sink + s.cpuTemp(0.5, 50.0, 40.0);
        },
        0.3);
    std::cout << "lookup build: " << strings::fixed(lookup_ns / 1e6, 3)
              << " ms per build\n";

    // ------------------------------------------ optimizer decisions
    sched::LookupSpace space(server);
    sched::OptimizerParams op; // defaults
    sched::CoolingOptimizer visitor(space, teg, kColdC, op); // cache off
    // The space is not LookupSpaceCache's, so the optimizer's decision
    // table is private: after the first pass over the stream the
    // cached row times a flat-table hit.
    sched::CoolingOptimizer cached(space, teg, kColdC, op, 0.0, 1e-3);

    // A realistic planning-utilization stream, so the cache sees the
    // duty cycle a trace produces rather than a uniform sweep.
    workload::TraceGenerator gen(7);
    auto opt_trace = gen.generate(
        workload::TraceGenParams::forProfile(
            workload::TraceProfile::Drastic),
        64, 12.0 * 3600.0);
    std::vector<double> util_stream;
    for (size_t s = 0; s < opt_trace.numSteps(); ++s)
        for (double u : opt_trace.step(s))
            util_stream.push_back(u);

    size_t cursor = 0;
    auto next_util = [&]() {
        double u = util_stream[cursor];
        cursor = (cursor + 1) % util_stream.size();
        return u;
    };

    double slice_ns =
        nsPerOp([&] { g_sink = g_sink + sliceChoose(space, teg, op,
                                                    next_util())
                                            .teg_power_w; });
    double visitor_ns = nsPerOp(
        [&] { g_sink = g_sink + visitor.choose(next_util()).teg_power_w; });
    double cached_ns = nsPerOp(
        [&] { g_sink = g_sink + cached.choose(next_util()).teg_power_w; });
    // Safe mode's ColdFallback: plans at the exact utilization, so the
    // decision table never serves it.
    double coldest_full_ns = nsPerOp([&] {
        g_sink = g_sink +
                 fullScanColdest(space, teg, next_util()).teg_power_w;
    });
    double coldest_ns = nsPerOp([&] {
        g_sink = g_sink + visitor.coldestFallback(next_util()).teg_power_w;
    });

    TablePrinter opt_table("Cooling decision (one circulation)");
    opt_table.setHeader({"path", "ns/decision", "Mdecisions/s",
                         "speedup"});
    auto opt_row = [&](const std::string &name, double ns) {
        opt_table.addRow(name,
                         {ns, 1e3 / ns, slice_ns / ns}, 2);
    };
    opt_row("slice baseline", slice_ns);
    opt_row("visitor", visitor_ns);
    opt_row("visitor+cache", cached_ns);
    opt_table.print(std::cout);
    std::cout << "cache: " << cached.cacheSize() << " entries, "
              << cached.cacheHits() << " hits\n\n";

    TablePrinter cold_table("Coldest fallback (one circulation)");
    cold_table.setHeader({"path", "ns/decision", "speedup"});
    cold_table.addRow("full slice scan",
                      {coldest_full_ns, 1.0}, 2);
    cold_table.addRow("candidates",
                      {coldest_ns, coldest_full_ns / coldest_ns}, 2);
    cold_table.print(std::cout);
    std::cout << "\n";

    // ------------------------------------------------ step evaluation
    const std::vector<size_t> sizes{64, 256, 1024};
    std::vector<StepRow> rows;
    TablePrinter step_table("Step evaluation (decide + evaluate)");
    step_table.setHeader({"servers", "baseline us", "fast us",
                          "speedup"});

    for (size_t servers : sizes) {
        cluster::DatacenterParams dp;
        dp.num_servers = servers;
        cluster::Datacenter dc(dp);
        sched::CoolingOptimizer step_cached(space, teg, kColdC, op, 0.0,
                                            1e-3);
        control::PipelineFactory pipelines(dc, step_cached,
                                           control::BalancerParams{},
                                           op.t_safe_c);
        std::unique_ptr<control::ControlPipeline> decide =
            pipelines.make(sched::Policy::TegLoadBalance);

        auto trace = gen.generate(
            workload::TraceGenParams::forProfile(
                workload::TraceProfile::Drastic),
            servers, 6.0 * 3600.0);
        std::vector<std::vector<double>> steps;
        for (size_t s = 0; s < trace.numSteps(); ++s)
            steps.push_back(trace.step(s));

        size_t at = 0;
        auto next_step = [&]() -> const std::vector<double> & {
            const auto &u = steps[at];
            at = (at + 1) % steps.size();
            return u;
        };

        double baseline_ns = nsPerOp([&] {
            g_sink = g_sink +
                     baselineStep(dc, space, teg, op, next_step());
        });

        sched::ScheduleDecision decision;
        cluster::DatacenterState state;
        control::ControlContext ctx;
        ctx.dc = &dc;
        auto fast_step = [&] {
            ctx.utils = &next_step();
            decide->run(ctx, decision);
            dc.evaluateInto(decision.utils, decision.settings, nullptr,
                            state);
            g_sink = g_sink + state.teg_power_w;
        };

        StepRow row;
        row.servers = servers;
        row.baseline_ns = baseline_ns;
        row.fast_ns = nsPerOp(fast_step);
        rows.push_back(row);
        step_table.addRow(
            strings::fixed(static_cast<double>(servers), 0),
            {baseline_ns / 1e3, row.fast_ns / 1e3,
             baseline_ns / row.fast_ns},
            2);
    }
    step_table.print(std::cout);

    // ---------------------------------------------- fleet evaluation
    // The SoA kernel's target scale: 4k-64k servers, pure
    // Datacenter::evaluateInto cost (no scheduling). Utilizations come
    // from a cheap deterministic hash pattern — generating a 64k-server
    // trace through TraceGenerator would dwarf the measured loop — and
    // every timed evaluation into the reused state must reproduce the
    // first evaluation's totals bitwise. Each size runs twice: every
    // loop at one shared flow (loops reuse one coefficient hoist) and
    // loop k at its own flow (every loop re-hoists, the worst case).
    struct FleetRow
    {
        size_t servers = 0;
        bool distinct_flows = false;
        double eval_ns = 0.0;
        bool identical = true;
    };
    std::vector<FleetRow> fleet_rows;
    TablePrinter fleet_table(
        "Fleet-scale SoA step evaluation (evaluate only)");
    fleet_table.setHeader({"servers", "distinct flows", "eval us",
                           "ns/server/step", "bit-identical"});
    for (size_t servers :
         {size_t{4096}, size_t{16384}, size_t{65536}}) {
        for (bool distinct_flows : {false, true}) {
            cluster::DatacenterParams dp;
            dp.num_servers = servers;
            dp.servers_per_circulation = 64;
            cluster::Datacenter dc(dp);

            std::vector<double> utils(servers);
            for (size_t i = 0; i < servers; ++i) {
                // Knuth multiplicative hash -> [0.05, 0.95].
                uint32_t h = static_cast<uint32_t>(i) * 2654435761u;
                utils[i] =
                    0.05 + 0.9 * static_cast<double>(h >> 8) /
                               static_cast<double>(1u << 24);
            }
            std::vector<cluster::CoolingSetting> fleet_settings(
                dc.numCirculations(), cluster::CoolingSetting{45.0, 50.0});
            if (distinct_flows)
                for (size_t k = 0; k < fleet_settings.size(); ++k)
                    fleet_settings[k].flow_lph =
                        20.0 + 0.1 * static_cast<double>(k);

            cluster::DatacenterState fleet_state;
            dc.evaluateInto(utils, fleet_settings, nullptr, fleet_state);
            const double first_teg = fleet_state.teg_power_w;
            const double first_heat = fleet_state.heat_w;

            FleetRow row;
            row.servers = servers;
            row.distinct_flows = distinct_flows;
            row.eval_ns = nsPerOp([&] {
                dc.evaluateInto(utils, fleet_settings, nullptr, fleet_state);
                g_sink = g_sink + fleet_state.teg_power_w;
            });
            row.identical = fleet_state.teg_power_w == first_teg &&
                            fleet_state.heat_w == first_heat;
            fleet_rows.push_back(row);
            fleet_table.addRow(
                strings::fixed(static_cast<double>(servers), 0),
                {distinct_flows ? 1.0 : 0.0, row.eval_ns / 1e3,
                 row.eval_ns / static_cast<double>(servers),
                 row.identical ? 1.0 : 0.0},
                2);
        }
    }
    fleet_table.print(std::cout);

    // ----------------------------------------------- observability
    // The [obs] contract: disabled is one null check per step, and
    // even enabled the spans/counters/histograms must stay in the
    // noise of the step itself. Time identical full-system runs both
    // ways (no export paths, so this is pure in-loop cost).
    // The paper's canonical cluster (and the config default): 1,000
    // servers. The [obs] budget is judged against the step cost a
    // real simulation of that cluster pays.
    core::H2PConfig oc;
    auto obs_trace = gen.generate(
        workload::TraceGenParams::forProfile(
            workload::TraceProfile::Drastic),
        oc.datacenter.num_servers, 24.0 * 3600.0);
    const double obs_steps =
        static_cast<double>(obs_trace.numSteps());

    // The SoA kernel left the step fast enough that one sequential
    // off-then-on measurement is dominated by clock-frequency drift
    // between the two windows. Instead: two long-lived systems, many
    // tightly alternated off/on rounds, and the median of the
    // per-round ratios — drift then hits both arms of a round almost
    // equally and cancels in the ratio.
    core::H2PConfig obs_off_cfg = oc;
    obs_off_cfg.obs.enabled = false;
    core::H2PConfig obs_on_cfg = oc;
    obs_on_cfg.obs.enabled = true;
    core::H2PSystem obs_off_sys(obs_off_cfg);
    core::H2PSystem obs_on_sys(obs_on_cfg);
    auto obs_time_ns = [&](core::H2PSystem &system) {
        auto t0 = Clock::now();
        g_sink = g_sink +
                 system.run(obs_trace, sched::Policy::TegLoadBalance)
                     .summary.pre;
        return std::chrono::duration<double, std::nano>(Clock::now() -
                                                        t0)
            .count();
    };
    obs_time_ns(obs_off_sys); // warm both systems and the shared
    obs_time_ns(obs_on_sys);  // look-up table before timing
    const size_t obs_rounds = 9;
    std::vector<double> obs_ratios, obs_off_samples, obs_on_samples;
    for (size_t i = 0; i < obs_rounds; ++i) {
        double off = obs_time_ns(obs_off_sys);
        double on = obs_time_ns(obs_on_sys);
        obs_off_samples.push_back(off);
        obs_on_samples.push_back(on);
        obs_ratios.push_back(on / off);
    }
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    double obs_off_ns = median(obs_off_samples) / obs_steps;
    double obs_on_ns = median(obs_on_samples) / obs_steps;
    double obs_overhead_pct = (median(obs_ratios) - 1.0) * 100.0;

    TablePrinter obs_table(
        "Observability overhead (1000 servers, 288-step run, "
        "median of 9 paired rounds)");
    obs_table.setHeader({"obs", "us/step", "overhead %"});
    obs_table.addRow("disabled", {obs_off_ns / 1e3, 0.0}, 2);
    obs_table.addRow("enabled", {obs_on_ns / 1e3, obs_overhead_pct},
                     2);
    obs_table.print(std::cout);

    // A telemetry sample for the CI artifact: a short resilient run
    // with a scripted pump failure, exported as JSONL.
    core::H2PConfig tc;
    tc.datacenter.num_servers = 64;
    tc.safe_mode.enabled = true;
    fault::FaultEvent pump;
    pump.time_s = 2.0 * 3600.0;
    pump.kind = fault::FaultKind::PumpFailed;
    pump.circulation = 1;
    pump.duration_s = 2.0 * 3600.0;
    tc.faults.scripted.push_back(pump);
    tc.obs.enabled = true;
    tc.obs.jsonl_path =
        bench::resultsDir() + "/BENCH_obs_telemetry.jsonl";
    core::H2PSystem telem(tc);
    auto telem_trace = gen.generate(
        workload::TraceGenParams::forProfile(
            workload::TraceProfile::Drastic),
        64, 6.0 * 3600.0);
    telem.run(telem_trace, sched::Policy::TegLoadBalance);
    std::cout << "[jsonl] " << tc.obs.jsonl_path << "\n\n";

    // ------------------------------------------------ sweep throughput
    // Batch throughput of independent runs: a 16-point T_safe grid on
    // 64 servers, run as a plain serial loop and through the sweep
    // engine at 1/4/8 workers. The batched summaries must match the
    // serial ones bitwise at every worker count; the speedup is real
    // only on hosts with that many usable cores.
    const size_t sweep_n = 16;
    auto sweep_trace = gen.generate(
        workload::TraceGenParams::forProfile(
            workload::TraceProfile::Drastic),
        64, 6.0 * 3600.0);
    std::vector<core::SweepPoint> sweep_grid;
    for (size_t i = 0; i < sweep_n; ++i) {
        core::SweepPoint pt;
        pt.config.datacenter.num_servers = 64;
        pt.config.datacenter.servers_per_circulation = 16;
        pt.config.optimizer.t_safe_c =
            56.0 + static_cast<double>(i);
        pt.trace = &sweep_trace;
        pt.policy = sched::Policy::TegLoadBalance;
        pt.label = "t_safe=" + strings::fixed(
                                   pt.config.optimizer.t_safe_c, 0);
        sweep_grid.push_back(pt);
    }

    // Serial reference: the pre-engine pattern, one system and one
    // run at a time on the calling thread (warmed once so the shared
    // look-up table is built outside the timed region for everybody).
    std::vector<core::RunSummary> serial_summaries;
    auto serial_sweep = [&] {
        serial_summaries.clear();
        for (const core::SweepPoint &pt : sweep_grid) {
            core::H2PSystem system(pt.config);
            serial_summaries.push_back(
                system.run(*pt.trace, pt.policy).summary);
        }
    };
    serial_sweep(); // warm (builds + caches the look-up table)
    auto serial_t0 = Clock::now();
    serial_sweep();
    double serial_s =
        std::chrono::duration<double>(Clock::now() - serial_t0)
            .count();

    struct SweepThroughputRow
    {
        size_t workers = 0;
        double wall_s = 0.0;
        bool bit_identical = false;
    };
    std::vector<SweepThroughputRow> sweep_rows;
    bool sweep_identical = true;
    for (size_t workers : {size_t{1}, size_t{4}, size_t{8}}) {
        core::SweepOptions so;
        so.workers = workers;
        so.keep_recorders = false;
        core::SweepEngine engine(so);
        auto batch_t0 = Clock::now();
        core::SweepResult sr = engine.run(sweep_grid);
        double batch_s =
            std::chrono::duration<double>(Clock::now() - batch_t0)
                .count();

        SweepThroughputRow row;
        row.workers = workers;
        row.wall_s = batch_s;
        row.bit_identical = true;
        for (size_t i = 0; i < sweep_n; ++i)
            if (!sameSummary(sr.points[i].summary,
                             serial_summaries[i]))
                row.bit_identical = false;
        sweep_identical = sweep_identical && row.bit_identical;
        sweep_rows.push_back(row);
    }

    TablePrinter sweep_table(
        "Sweep throughput (16-point grid, 64 servers, "
        "TEG_LoadBalance)");
    sweep_table.setHeader({"mode", "wall s", "runs/s", "speedup",
                           "bit-identical"});
    sweep_table.addRow("serial loop",
                       {serial_s, sweep_n / serial_s, 1.0, 1.0}, 2);
    for (const SweepThroughputRow &r : sweep_rows)
        sweep_table.addRow(
            "batched x" + std::to_string(r.workers),
            {r.wall_s, sweep_n / r.wall_s, serial_s / r.wall_s,
             r.bit_identical ? 1.0 : 0.0},
            2);
    sweep_table.print(std::cout);
    std::cout << (sweep_identical
                      ? "batched summaries match serial bitwise at "
                        "every worker count\n"
                      : "MISMATCH: batched summaries differ from "
                        "serial\n");

    std::ostringstream sweep_json;
    sweep_json
        << "{\n"
        << "  \"bench\": \"sweep\",\n"
        << bench::hostJson()
        << "  \"note\": \"runs/sec of a 16-point sweep, serial loop "
           "vs SweepEngine. Batched speedup requires that many cores "
           "usable by the process; bit_identical must hold "
           "everywhere.\",\n"
        << "  \"grid_points\": " << sweep_n << ",\n"
        << "  \"servers\": 64,\n"
        << "  \"steps_per_run\": " << sweep_trace.numSteps() << ",\n"
        << "  \"serial\": {\"wall_s\": " << jsonNum(serial_s)
        << ", \"runs_per_s\": " << jsonNum(sweep_n / serial_s)
        << "},\n"
        << "  \"batched\": [\n";
    for (size_t i = 0; i < sweep_rows.size(); ++i) {
        const SweepThroughputRow &r = sweep_rows[i];
        sweep_json << "    {\"workers\": " << r.workers
                   << ", \"wall_s\": " << jsonNum(r.wall_s)
                   << ", \"runs_per_s\": "
                   << jsonNum(sweep_n / r.wall_s)
                   << ", \"speedup_vs_serial\": "
                   << jsonNum(serial_s / r.wall_s)
                   << ", \"bit_identical\": "
                   << (r.bit_identical ? "true" : "false") << "}"
                   << (i + 1 < sweep_rows.size() ? "," : "") << "\n";
    }
    sweep_json << "  ]\n}\n";
    std::string sweep_path =
        bench::resultsDir() + "/BENCH_sweep.json";
    std::ofstream sweep_out(sweep_path);
    sweep_out << sweep_json.str();
    sweep_out.close();
    std::cout << "[json] " << sweep_path << "\n\n";

    // --------------------------------------------- trace generation
    // paper-day's set-up: eight drastic 1,000-server 24-h traces, the
    // servers split across every usable CPU, then with this thread
    // (whose mask the generator's workers inherit) narrowed to one
    // CPU. Best of three alternated passes each. A shared virtual
    // machine sometimes runs all of a process's threads on one CPU
    // for seconds (the sweep rows above then show no speed-up
    // either), and this row then reads about 1.
    const size_t trace_workers = util::hardwareThreads();
    auto eight_traces_s = [] {
        const workload::TraceGenParams params =
            workload::TraceGenParams::forProfile(
                workload::TraceProfile::Drastic);
        auto t0 = Clock::now();
        for (uint64_t seed = 1; seed <= 8; ++seed)
            g_sink = g_sink + workload::TraceGenerator(seed)
                                  .generate(params, 1000, 24.0 * 3600.0)
                                  .util(0, 0);
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    // If the mask cannot be read, narrowed or restored, the one-CPU
    // time would silently be a parallel one: it is reported as not
    // measured instead.
    cpu_set_t full_mask, one_cpu;
    CPU_ZERO(&full_mask);
    CPU_ZERO(&one_cpu);
    bool one_cpu_measured =
        sched_getaffinity(0, sizeof(full_mask), &full_mask) == 0;
    for (int cpu = 0; one_cpu_measured && cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &full_mask)) {
            CPU_SET(cpu, &one_cpu);
            break;
        }
    double trace_parallel_s = 1e300, trace_one_cpu_s = 1e300;
    for (int pass = 0; pass < 3; ++pass) {
        trace_parallel_s = std::min(trace_parallel_s, eight_traces_s());
        if (!one_cpu_measured)
            continue;
        if (sched_setaffinity(0, sizeof(one_cpu), &one_cpu) != 0) {
            one_cpu_measured = false;
            continue;
        }
        trace_one_cpu_s = std::min(trace_one_cpu_s, eight_traces_s());
        if (sched_setaffinity(0, sizeof(full_mask), &full_mask) != 0) {
            one_cpu_measured = false;
            break;
        }
    }
    std::cout << "trace generation (8 x 1000 servers x 24 h): "
              << strings::fixed(trace_parallel_s * 1e3, 1) << " ms on "
              << trace_workers << " workers, ";
    if (one_cpu_measured)
        std::cout << strings::fixed(trace_one_cpu_s * 1e3, 1)
                  << " ms on one CPU (x"
                  << strings::fixed(trace_one_cpu_s / trace_parallel_s, 2)
                  << ")\n";
    else
        std::cout << "one-CPU time not measured (affinity call failed)\n";
    const std::string trace_one_cpu_json =
        one_cpu_measured ? jsonNum(trace_one_cpu_s) : "null";
    const std::string trace_speedup_json =
        one_cpu_measured ? jsonNum(trace_one_cpu_s / trace_parallel_s)
                         : "null";

    // -------------------------------------------------- JSON report
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"hotpath\",\n"
         << bench::hostJson()
         << "  \"note\": \"baseline emulates the pre-optimization "
            "path: slices materialized point by point through "
            "trilinear interpolation, per-step allocation, no "
            "decision cache. Every row but trace_generation is "
            "single-threaded.\",\n"
         << "  \"lookup_build_ns\": " << jsonNum(lookup_ns) << ",\n"
         << "  \"trace_generation\": {\n"
         << "    \"traces\": 8,\n"
         << "    \"servers\": 1000,\n"
         << "    \"hours\": 24,\n"
         << "    \"workers\": " << trace_workers << ",\n"
         << "    \"parallel_s\": " << jsonNum(trace_parallel_s) << ",\n"
         << "    \"one_cpu_s\": " << trace_one_cpu_json << ",\n"
         << "    \"speedup\": " << trace_speedup_json << "\n  },\n"
         << "  \"optimizer_decision\": {\n"
         << "    \"slice_baseline_ns\": " << jsonNum(slice_ns) << ",\n"
         << "    \"visitor_ns\": " << jsonNum(visitor_ns) << ",\n"
         << "    \"visitor_cached_ns\": " << jsonNum(cached_ns) << ",\n"
         << "    \"speedup_visitor\": "
         << jsonNum(slice_ns / visitor_ns) << ",\n"
         << "    \"speedup_cached\": " << jsonNum(slice_ns / cached_ns)
         << ",\n"
         << "    \"coldest_full_scan_ns\": " << jsonNum(coldest_full_ns)
         << ",\n"
         << "    \"coldest_ns\": " << jsonNum(coldest_ns) << ",\n"
         << "    \"speedup_coldest\": "
         << jsonNum(coldest_full_ns / coldest_ns) << "\n  },\n"
         << "  \"step_eval\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const StepRow &r = rows[i];
        json << "    {\"servers\": " << r.servers
             << ", \"baseline_ns\": " << jsonNum(r.baseline_ns)
             << ", \"fast_ns\": " << jsonNum(r.fast_ns)
             << ", \"speedup\": " << jsonNum(r.baseline_ns / r.fast_ns)
             << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"fleet_eval\": [\n";
    for (size_t i = 0; i < fleet_rows.size(); ++i) {
        const FleetRow &r = fleet_rows[i];
        json << "    {\"servers\": " << r.servers
             << ", \"distinct_flows\": "
             << (r.distinct_flows ? "true" : "false")
             << ", \"eval_ns\": " << jsonNum(r.eval_ns)
             << ", \"ns_per_server\": "
             << jsonNum(r.eval_ns / static_cast<double>(r.servers))
             << ", \"bit_identical\": "
             << (r.identical ? "true" : "false") << "}"
             << (i + 1 < fleet_rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"obs_overhead\": {\n"
         << "    \"servers\": " << oc.datacenter.num_servers << ",\n"
         << "    \"steps_per_run\": " << obs_trace.numSteps() << ",\n"
         << "    \"disabled_ns_per_step\": "
         << jsonNum(obs_off_ns) << ",\n"
         << "    \"enabled_ns_per_step\": "
         << jsonNum(obs_on_ns) << ",\n"
         << "    \"overhead_pct\": " << jsonNum(obs_overhead_pct)
         << "\n  }\n}\n";

    std::string path = bench::resultsDir() + "/BENCH_hotpath.json";
    std::ofstream out(path);
    out << json.str();
    out.close();
    std::cout << "\n[json] " << path << "\n";
    return 0;
}
