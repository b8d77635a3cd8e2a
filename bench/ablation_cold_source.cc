/**
 * @file
 * Ablation: the natural-water cold source. H2P assumes ~20 C water
 * (AliCloud Qiandao Lake: 15-20 C year-round). Sweeping the cold-side
 * temperature shows how siting (lake vs sea vs cooling-tower water)
 * changes the harvest and the TCO story.
 *
 * Executed through core::SweepEngine: one grid point per cold-source
 * temperature, rows streamed back in grid order.
 */

#include <iostream>

#include "bench/bench_common.h"
#include "core/sweep_engine.h"
#include "econ/tco.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/trace_gen.h"

int
main()
{
    using namespace h2p;

    workload::TraceGenerator gen(2020);
    auto trace =
        gen.generateProfile(workload::TraceProfile::Common, 200);
    econ::TcoModel tco;

    TablePrinter table(
        "Ablation - cold-source temperature (common trace, "
        "TEG_LoadBalance)");
    table.setHeader({"T_cold[C]", "TEG avg[W]", "PRE[%]",
                     "TCO reduction[%]", "break-even[d]"});
    CsvTable csv({"t_cold_c", "teg_w", "pre_pct", "tco_pct",
                  "break_even_days"});

    const std::vector<double> sources = {10.0, 15.0, 20.0, 25.0, 30.0};
    std::vector<core::SweepPoint> grid;
    for (double t_cold : sources) {
        core::SweepPoint pt;
        pt.config.datacenter.num_servers = 200;
        pt.config.datacenter.servers_per_circulation = 50;
        pt.config.datacenter.cold_source_c = t_cold;
        pt.trace = &trace;
        pt.policy = sched::Policy::TegLoadBalance;
        pt.label = "t_cold=" + strings::fixed(t_cold, 0);
        grid.push_back(pt);
    }

    core::SweepEngine engine;
    engine.run(grid, [&](const core::SweepPointResult &r) {
        double t_cold = sources[r.index];
        auto t = tco.compare(r.summary.avg_teg_w);
        table.addRow(strings::fixed(t_cold, 0),
                     {r.summary.avg_teg_w, 100.0 * r.summary.pre,
                      t.reduction_pct,
                      tco.breakEvenDays(r.summary.avg_teg_w)},
                     2);
        csv.addRow({t_cold, r.summary.avg_teg_w, 100.0 * r.summary.pre,
                    t.reduction_pct,
                    tco.breakEvenDays(r.summary.avg_teg_w)});
    });
    table.print(std::cout);
    bench::saveCsv(csv, "ablation_cold_source");

    std::cout << "\nEvery degree of colder natural water adds "
                 "temperature difference across the TEGs for free; a "
                 "30 C source (warm seawater) roughly halves the "
                 "harvest vs a 10 C deep lake.\n";
    return 0;
}
