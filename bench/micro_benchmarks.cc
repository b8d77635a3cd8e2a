/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's hot paths:
 * look-up queries, optimizer decisions, server/datacenter evaluation,
 * trace generation and the order-statistics quadrature. These bound
 * how large an H2P deployment the simulator can sweep interactively.
 */

#include <benchmark/benchmark.h>

#include "cluster/datacenter.h"
#include "cluster/server_block.h"
#include "core/h2p_system.h"
#include "sched/cooling_optimizer.h"
#include "sched/lookup_space.h"
#include "stats/order_stats.h"
#include "thermal/cpu.h"
#include "thermal/teg.h"
#include "workload/cpu_power.h"
#include "workload/trace_gen.h"

namespace {

using namespace h2p;

void
BM_ServerEvaluate(benchmark::State &state)
{
    cluster::Server server;
    double u = 0.1;
    for (auto _ : state) {
        u = u > 0.9 ? 0.1 : u + 0.01;
        benchmark::DoNotOptimize(
            server.evaluate(u, 50.0, 45.0, 20.0));
    }
}
BENCHMARK(BM_ServerEvaluate);

// ---- Per-kernel rows: the arithmetic stages the SoA step kernel is
// ---- built from, so a regression can be pinned to one pass.

/** Utilization -> package power (Eq. 20): one log per server. */
void
BM_KernelPowerPoly(benchmark::State &state)
{
    workload::CpuPowerModel power;
    double u = 0.1;
    for (auto _ : state) {
        u = u > 0.9 ? 0.1 : u + 0.013;
        benchmark::DoNotOptimize(power.power(u));
    }
}
BENCHMARK(BM_KernelPowerPoly);

/** Die-temperature pass: T_die = k * T_in + P * r over a block. */
void
BM_KernelDieTemp(benchmark::State &state)
{
    thermal::CpuThermalModel thermal;
    thermal::CpuStepCoefficients c = thermal.stepCoefficients(50.0);
    const size_t n = 1024;
    std::vector<double> cpu_w(n), die_c(n);
    for (size_t i = 0; i < n; ++i)
        cpu_w[i] = 40.0 + 0.05 * static_cast<double>(i);
    const double kt = c.slope_k * 45.0;
    for (auto _ : state) {
        for (size_t i = 0; i < n; ++i)
            die_c[i] = kt + cpu_w[i] * c.plate_r_kpw;
        benchmark::DoNotOptimize(die_c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelDieTemp);

/** TEG harvest fit (Eq. 2 + 6/7 with the Fig. 7 coupling). */
void
BM_KernelTegFit(benchmark::State &state)
{
    thermal::TegModule teg(12);
    double t_out = 46.0;
    for (auto _ : state) {
        t_out = t_out > 55.0 ? 46.0 : t_out + 0.017;
        benchmark::DoNotOptimize(
            teg.powerFromTemps(t_out, 20.0, 50.0));
    }
}
BENCHMARK(BM_KernelTegFit);

/**
 * Deriving the flow-dependent coefficients — the work the SoA kernel
 * hoists to once per circulation per step. Compare against
 * BM_KernelDieTemp's per-server cost to see why.
 */
void
BM_KernelCoefficientHoist(benchmark::State &state)
{
    thermal::CpuThermalModel thermal;
    thermal::TegModule teg(12);
    double flow = 20.0;
    for (auto _ : state) {
        flow = flow > 110.0 ? 20.0 : flow + 0.13;
        benchmark::DoNotOptimize(thermal.stepCoefficients(flow));
        benchmark::DoNotOptimize(teg.stepCoefficients(flow));
    }
}
BENCHMARK(BM_KernelCoefficientHoist);

/**
 * Unhoisted whole-server evaluation (per-call coefficient re-derive)
 * vs the hoisted SoA block below; same physics, same results.
 */
void
BM_KernelServerScalarUnhoisted(benchmark::State &state)
{
    cluster::Server server;
    const size_t n = static_cast<size_t>(state.range(0));
    std::vector<double> utils(n);
    for (size_t i = 0; i < n; ++i)
        utils[i] = 0.05 + 0.9 * static_cast<double>(i) /
                              static_cast<double>(n);
    for (auto _ : state) {
        for (size_t i = 0; i < n; ++i)
            benchmark::DoNotOptimize(
                server.evaluate(utils[i], 50.0, 45.0, 20.0));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelServerScalarUnhoisted)->Arg(1024);

/**
 * Hoisted SoA block (ServerBlock::evaluate with null fault lanes):
 * coefficients once, then vectorizable passes.
 */
void
BM_KernelServerBlockHoisted(benchmark::State &state)
{
    cluster::ServerBlock block{cluster::ServerParams{}};
    const size_t n = static_cast<size_t>(state.range(0));
    std::vector<double> utils(n);
    for (size_t i = 0; i < n; ++i)
        utils[i] = 0.05 + 0.9 * static_cast<double>(i) /
                              static_cast<double>(n);
    cluster::ServerStateBlock out;
    out.resize(n);
    for (auto _ : state) {
        cluster::ServerBlock::Coeffs c =
            block.coefficients(50.0, 45.0, 20.0);
        block.evaluate(utils.data(), n, c, {}, out, 0);
        benchmark::DoNotOptimize(
            cluster::ServerBlock::reduce(out, 0, n));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelServerBlockHoisted)->Arg(1024);

void
BM_LookupSpaceBuild(benchmark::State &state)
{
    cluster::Server server;
    for (auto _ : state) {
        sched::LookupSpace space(server);
        benchmark::DoNotOptimize(space.numPoints());
    }
}
BENCHMARK(BM_LookupSpaceBuild);

void
BM_LookupQuery(benchmark::State &state)
{
    cluster::Server server;
    sched::LookupSpace space(server);
    double u = 0.0;
    for (auto _ : state) {
        u = u > 0.99 ? 0.0 : u + 0.013;
        benchmark::DoNotOptimize(space.cpuTemp(u, 37.0, 43.0));
    }
}
BENCHMARK(BM_LookupQuery);

void
BM_OptimizerChoose(benchmark::State &state)
{
    cluster::Server server;
    sched::LookupSpace space(server);
    thermal::TegModule teg(12);
    sched::CoolingOptimizer opt(space, teg);
    double u = 0.0;
    for (auto _ : state) {
        u = u > 0.98 ? 0.0 : u + 0.017;
        benchmark::DoNotOptimize(opt.choose(u));
    }
}
BENCHMARK(BM_OptimizerChoose);

void
BM_OptimizerColdestFallback(benchmark::State &state)
{
    cluster::Server server;
    sched::LookupSpace space(server);
    thermal::TegModule teg(12);
    sched::CoolingOptimizer opt(space, teg);
    double u = 0.0;
    for (auto _ : state) {
        u = u > 0.98 ? 0.0 : u + 0.017;
        benchmark::DoNotOptimize(opt.coldestFallback(u));
    }
}
BENCHMARK(BM_OptimizerColdestFallback);

void
BM_DatacenterStep(benchmark::State &state)
{
    cluster::DatacenterParams params;
    params.num_servers = static_cast<size_t>(state.range(0));
    params.servers_per_circulation = 50;
    cluster::Datacenter dc(params);
    std::vector<double> utils(params.num_servers, 0.35);
    std::vector<cluster::CoolingSetting> settings(
        dc.numCirculations(), cluster::CoolingSetting{48.0, 60.0});
    for (auto _ : state)
        benchmark::DoNotOptimize(dc.evaluate(utils, settings));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(params.num_servers));
}
BENCHMARK(BM_DatacenterStep)->Arg(100)->Arg(1000);

void
BM_TraceGeneration(benchmark::State &state)
{
    workload::TraceGenerator gen(2020);
    workload::TraceGenParams params;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            gen.generate(params, 100, 3600.0 * 6.0));
    }
}
BENCHMARK(BM_TraceGeneration);

void
BM_OrderStatMean(benchmark::State &state)
{
    stats::Normal base(55.0, 6.0);
    size_t n = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        stats::NormalMaxOrderStat stat(base, n);
        benchmark::DoNotOptimize(stat.mean());
    }
}
BENCHMARK(BM_OrderStatMean)->Arg(10)->Arg(1000);

void
BM_FullScheduledStep(benchmark::State &state)
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 200;
    cfg.datacenter.servers_per_circulation = 50;
    core::H2PSystem sys(cfg);
    std::vector<double> utils(200, 0.35);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sys.evaluateStep(utils, sched::Policy::TegLoadBalance));
    }
}
BENCHMARK(BM_FullScheduledStep);

} // namespace

BENCHMARK_MAIN();
