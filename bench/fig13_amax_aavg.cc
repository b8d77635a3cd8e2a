/**
 * @file
 * Reproduces Fig. 13: selecting the look-up points whose CPU
 * temperature lies in [T_safe - 1, T_safe + 1] at T_safe = 62 C, on
 * the planes u = U_max and u = U_avg. Expected shape: the A_avg
 * candidate set sits at generally higher inlet temperatures than
 * A_max, which is why balancing raises the generated power.
 */

#include <algorithm>
#include <iostream>

#include "bench/bench_common.h"
#include "cluster/server.h"
#include "sched/cooling_optimizer.h"
#include "sched/lookup_space.h"
#include "util/strings.h"
#include "util/table.h"

int
main()
{
    using namespace h2p;

    cluster::Server server;
    sched::LookupSpace space(server);
    thermal::TegModule teg(12);
    sched::OptimizerParams params;
    params.t_safe_c = 62.0; // the figure's worked example
    sched::CoolingOptimizer opt(space, teg, 20.0, params); // 20 C cold

    const double u_max = 0.8; // the circulation's hottest server
    const double u_avg = 0.3; // its mean after balancing

    TablePrinter table(
        "Fig. 13 - candidate sets A = U intersect X at T_safe = 62 C");
    table.setHeader({"plane", "candidates", "T_in min[C]",
                     "T_in max[C]", "chosen T_in[C]", "chosen f[L/H]",
                     "P_TEG[W]"});

    CsvTable csv({"plane_util", "t_in", "flow_lph", "t_cpu", "p_teg"});
    for (double u : {u_max, u_avg}) {
        auto candidates = opt.candidateSet(u);
        double lo = 1e9, hi = -1e9;
        for (const auto &p : candidates) {
            lo = std::min(lo, p.t_in_c);
            hi = std::max(hi, p.t_in_c);
            csv.addRow({u, p.t_in_c, p.flow_lph, p.t_cpu_c,
                        teg.powerFromTemps(p.t_out_c, 20.0,
                                           p.flow_lph)});
        }
        auto r = opt.choose(u);
        table.addRow((u == u_max ? "A_max (u=0.8)" : "A_avg (u=0.3)"),
                     {static_cast<double>(candidates.size()), lo, hi,
                      r.setting.t_in_c, r.setting.flow_lph,
                      r.teg_power_w},
                     2);
    }
    table.print(std::cout);
    bench::saveCsv(csv, "fig13_amax_aavg");

    double gain = opt.choose(u_avg).teg_power_w /
                      opt.choose(u_max).teg_power_w -
                  1.0;
    std::cout << "\nPlanning on U_avg instead of U_max raises the "
                 "module power by "
              << strings::fixed(100.0 * gain, 1)
              << " % - the Fig. 13 mechanism behind TEG_LoadBalance.\n";
    return 0;
}
