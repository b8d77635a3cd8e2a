/**
 * @file
 * Ablation: inter-circulation job placement. The within-loop
 * balancing of Sec. V-B leaves open *which* loop a hot job should
 * run in. Spreading hot jobs (snake) caps every loop's inlet;
 * clustering them (hot-cluster, echoing Skach et al.'s "locate hot
 * jobs together") sacrifices one loop's harvest so the others run
 * warm. This bench prices native, snake and hot-cluster placement
 * under both schemes.
 */

#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "control/stages.h"
#include "core/h2p_system.h"
#include "sched/placement.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/trace_gen.h"

namespace {

using namespace h2p;

/**
 * Average TEG W/server of the trace laid out by @p place (null: the
 * trace's native order), planned by the paper's scheme (TEG_Original,
 * or TEG_LoadBalance when @p balance): [(placement), (balance),
 * cooling].
 */
double
runAvgTeg(control::PlacementStage::Place place, bool balance,
          const workload::UtilizationTrace &trace,
          const core::H2PSystem &sys)
{
    const sched::Policy policy = balance ? sched::Policy::TegLoadBalance
                                         : sched::Policy::TegOriginal;
    std::unique_ptr<control::ControlPipeline> p;
    if (place != nullptr) {
        const cluster::Datacenter &dc = sys.datacenter();
        p = std::make_unique<control::ControlPipeline>("placed");
        p->add(std::make_unique<control::PlacementStage>(dc, place));
        if (balance)
            p->add(std::make_unique<control::BalanceStage>(dc));
        p->add(std::make_unique<control::CoolingStage>(dc, sys.optimizer()));
    }
    core::SimSession session = sys.startSession(trace, policy, std::move(p));
    double teg_sum = 0.0;
    while (!session.done()) {
        session.step();
        teg_sum += session.lastState().teg_power_w /
                   static_cast<double>(sys.datacenter().numServers());
    }
    return teg_sum / static_cast<double>(trace.numSteps());
}

} // namespace

int
main()
{
    using namespace h2p;

    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 200;
    cfg.datacenter.servers_per_circulation = 50;
    // Plan at the exact utilization, not a cached quantized one.
    cfg.perf.optimizer_cache_quantum = 0.0;
    core::H2PSystem sys(cfg);

    workload::TraceGenerator gen(2020);
    auto trace =
        gen.generateProfile(workload::TraceProfile::Drastic, 200);

    TablePrinter table(
        "Ablation - inter-circulation placement x within-loop "
        "balancing (drastic trace, TEG W/server)");
    table.setHeader({"placement", "TEG_Original", "TEG_LoadBalance"});
    CsvTable csv({"placement_idx", "orig_w", "lb_w"});

    const char *names[] = {"native (trace order)", "snake (spread)",
                           "hot-cluster (pack)"};
    int idx = 0;
    for (control::PlacementStage::Place place :
         {control::PlacementStage::Place(nullptr), &sched::placeSnake,
          &sched::placeHotCluster}) {
        double orig = runAvgTeg(place, false, trace, sys);
        double lb = runAvgTeg(place, true, trace, sys);
        table.addRow(names[idx], {orig, lb}, 3);
        csv.addRow({double(idx), orig, lb});
        ++idx;
    }
    table.print(std::cout);
    bench::saveCsv(csv, "ablation_placement");

    std::cout << "\nWithout balancing, clustering the hot jobs lets "
                 "the other loops run warm (Skach-style) and lifts "
                 "the harvest. Once within-loop balancing is on, the "
                 "planning signal is each loop's *mean*, so spreading "
                 "(snake) wins instead: the right placement depends "
                 "on whether the operator deploys the paper's "
                 "balancer.\n";
    return 0;
}
