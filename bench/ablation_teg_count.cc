/**
 * @file
 * Ablation: TEGs per server. H2P deploys 12; more TEGs harvest more
 * power linearly (Eq. 7) but cost linearly too, so the TCO reduction
 * grows while the break-even time stays put — the real constraint is
 * the plumbing area at the server outlet.
 *
 * Executed through core::SweepEngine: one grid point per TEG count,
 * rows streamed back in grid order.
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

    TablePrinter table(
        "Ablation - TEG count per server (common trace, "
        "TEG_LoadBalance)");
    table.setHeader({"TEGs/server", "TEG avg[W]", "PRE[%]",
                     "TCO reduction[%]", "break-even[d]"});
    CsvTable csv({"tegs", "teg_w", "pre_pct", "tco_pct",
                  "break_even_days"});

    const std::vector<size_t> counts = {6, 12, 18, 24, 36};
    std::vector<core::SweepPoint> grid;
    for (size_t n : counts) {
        core::SweepPoint pt;
        pt.config.datacenter.num_servers = 200;
        pt.config.datacenter.servers_per_circulation = 50;
        pt.config.datacenter.server.tegs_per_server = n;
        pt.trace = &trace;
        pt.policy = sched::Policy::TegLoadBalance;
        pt.label = "tegs=" + std::to_string(n);
        grid.push_back(pt);
    }

    core::SweepEngine engine;
    engine.run(grid, [&](const core::SweepPointResult &r) {
        size_t n = counts[r.index];
        econ::TcoParams tp;
        tp.tegs_per_server = n;
        econ::TcoModel tco(tp);
        auto t = tco.compare(r.summary.avg_teg_w);
        table.addRow(std::to_string(n),
                     {r.summary.avg_teg_w, 100.0 * r.summary.pre,
                      t.reduction_pct,
                      tco.breakEvenDays(r.summary.avg_teg_w)},
                     2);
        csv.addRow({double(n), r.summary.avg_teg_w,
                    100.0 * r.summary.pre, t.reduction_pct,
                    tco.breakEvenDays(r.summary.avg_teg_w)});
    });
    table.print(std::cout);
    bench::saveCsv(csv, "ablation_teg_count");

    std::cout << "\nPower and cost both scale with the TEG count, so "
                 "the break-even stays ~constant while the absolute "
                 "TCO reduction scales with the deployment.\n";
    return 0;
}
