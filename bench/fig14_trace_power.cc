/**
 * @file
 * Reproduces Fig. 14: the trace-driven evaluation. Runs the three
 * trace classes (drastic / irregular / common) through the 1,000
 * server datacenter under TEG_Original and TEG_LoadBalance and
 * reports the average and peak generated power per CPU.
 *
 * Paper reference points: TEG_Original averages 3.725 / 3.772 /
 * 3.586 W; TEG_LoadBalance averages 4.349 / 4.203 / 3.979 W
 * (+13.08 % overall); power anticorrelates with utilization.
 */

#include <iostream>

#include "bench/bench_common.h"
#include "core/h2p_system.h"
#include "sim/channels.h"
#include "stats/bootstrap.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/trace_gen.h"

int
main()
{
    using namespace h2p;

    core::H2PConfig cfg; // paper scale: 1,000 servers
    core::H2PSystem sys(cfg);
    workload::TraceGenerator gen(2020);

    TablePrinter table(
        "Fig. 14 - generated power per CPU under three trace classes");
    table.setHeader({"trace / scheme", "avg[W]", "95% CI", "peak[W]",
                     "paper avg[W]", "mean util", "avg T_in[C]"});

    const double paper_orig[3] = {3.725, 3.772, 3.586};
    const double paper_lb[3] = {4.349, 4.203, 3.979};

    // trace_idx: 0 drastic, 1 irregular, 2 common;
    // scheme_idx: 0 TEG_Original, 1 TEG_LoadBalance.
    CsvTable csv({"trace_idx", "scheme_idx", "step", "time_s",
                  "teg_w_per_server", "util_mean"});
    double sum_orig = 0.0, sum_lb = 0.0;
    int ti = 0;
    for (auto prof : {workload::TraceProfile::Drastic,
                      workload::TraceProfile::Irregular,
                      workload::TraceProfile::Common}) {
        auto trace = gen.generateProfile(prof, 1000);
        int si = 0;
        for (auto policy : {sched::Policy::TegOriginal,
                            sched::Policy::TegLoadBalance}) {
            auto r = sys.run(trace, policy);
            const auto &teg = r.recorder->series(sim::channels::kTegWPerServer);
            const auto &um = r.recorder->series(sim::channels::kUtilMean);
            for (size_t s = 0; s < teg.size(); ++s) {
                csv.addRow({double(ti), double(si), double(s),
                            teg.timeOf(s), teg.at(s), um.at(s)});
            }
            double paper =
                si == 0 ? paper_orig[ti] : paper_lb[ti];
            Rng boot_rng(99);
            auto ci =
                stats::bootstrapMeanCi(teg.samples(), boot_rng);
            table.addRow(
                {toString(prof) + " / " + toString(policy),
                 strings::fixed(r.summary.avg_teg_w, 3),
                 '[' + strings::fixed(ci.lo, 3) + ", " +
                     strings::fixed(ci.hi, 3) + "]",
                 strings::fixed(r.summary.peak_teg_w, 3),
                 strings::fixed(paper, 3),
                 strings::fixed(um.mean(), 3),
                 strings::fixed(r.summary.avg_t_in_c, 3)});
            (si == 0 ? sum_orig : sum_lb) += r.summary.avg_teg_w;
            ++si;
        }
        ++ti;
    }
    table.print(std::cout);
    bench::saveCsv(csv, "fig14_trace_power");

    double gain = sum_lb / sum_orig - 1.0;
    std::cout << "\nOverall: TEG_Original "
              << strings::fixed(sum_orig / 3.0, 3)
              << " W -> TEG_LoadBalance "
              << strings::fixed(sum_lb / 3.0, 3) << " W, +"
              << strings::fixed(100.0 * gain, 2)
              << " % (paper: 3.694 -> 4.177 W, +13.08 %).\n";
    return 0;
}
