/**
 * @file
 * Ablation: the autonomous thermal balancer vs the paper's static
 * TEG_LoadBalance. The static scheme flattens each circulation to its
 * own mean once per interval but never moves work *between*
 * circulations; the balancer (EOS-style central view + bounded pull
 * migrations) additionally converges the cross-circulation deviation
 * into a hysteresis band. This bench reports, per trace seed:
 *
 *   - convergence: intervals until the deviation first enters the
 *     band, fraction of intervals spent inside it, and the mean
 *     cross-circulation |deviation| against the static baseline;
 *   - PRE impact: run-level PRE and average TEG output per server
 *     for static vs balancer.
 *
 * With --smoke it instead runs the CI gates:
 *   1. seed-pipeline identity — with [balancer] disabled, every
 *      per-interval decision of both built-in pipelines must be
 *      bit-identical to the Scheduler::decideInto oracle kept under
 *      tests/support (the refactor must not perturb the paper's
 *      schemes);
 *   2. drain budget — an operator drain at drain_rate = 1 must empty
 *      its circulation (and count a completed drain) within 4
 *      intervals.
 * Any gate failure exits non-zero.
 */

#include <cmath>
#include <cstring>
#include <iostream>

#include "bench/bench_common.h"
#include "control/thermal_balancer.h"
#include "core/h2p_system.h"
#include "util/strings.h"
#include "tests/support/scheduler_oracle.h"
#include "util/table.h"
#include "workload/trace_gen.h"

namespace {

using namespace h2p;

bool
sameBits(double a, double b)
{
    uint64_t x, y;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x == y;
}

core::H2PConfig
baseConfig(size_t servers, size_t per_circ)
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = servers;
    cfg.datacenter.servers_per_circulation = per_circ;
    return cfg;
}

workload::UtilizationTrace
makeTrace(uint64_t seed, size_t servers, double duration_s)
{
    workload::TraceGenerator gen(seed);
    return gen.generate(workload::TraceGenParams::forProfile(
                            workload::TraceProfile::Drastic),
                        servers, duration_s);
}

/** Max |circulation mean - global mean| of one decision. */
double
crossCircDeviation(const cluster::Datacenter &dc,
                   const std::vector<double> &utils)
{
    const size_t num_circ = dc.numCirculations();
    double total = 0.0;
    for (double u : utils)
        total += u;
    const double mean =
        total / static_cast<double>(utils.size());
    double max_dev = 0.0;
    size_t offset = 0;
    for (size_t c = 0; c < num_circ; ++c) {
        const size_t n = dc.circulationSize(c);
        double s = 0.0;
        for (size_t j = 0; j < n; ++j)
            s += utils[offset + j];
        offset += n;
        max_dev = std::max(
            max_dev, std::abs(s / static_cast<double>(n) - mean));
    }
    return max_dev;
}

struct VariantResult
{
    double avg_teg_w = 0.0;
    double pre = 0.0;
    double mean_dev = 0.0;
    /** First interval inside the band, or -1 if never. */
    double conv_step = -1.0;
    double conv_frac = 0.0;
    double migrations = 0.0;
};

VariantResult
runVariant(uint64_t seed, size_t servers, size_t per_circ,
           double duration_s, bool balancer, double max_move = 0.0,
           size_t max_pulls = 0)
{
    core::H2PConfig cfg = baseConfig(servers, per_circ);
    cfg.balancer.enabled = balancer;
    if (max_move > 0.0)
        cfg.balancer.max_move = max_move;
    if (max_pulls > 0)
        cfg.balancer.max_pulls = max_pulls;
    core::H2PSystem sys(cfg);
    auto trace = makeTrace(seed, servers, duration_s);
    auto session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    auto *bal =
        balancer ? static_cast<control::ThermalBalancer *>(
                       session.pipeline()->find(
                           control::ThermalBalancer::kName))
                 : nullptr;

    VariantResult out;
    const double band = cfg.balancer.hysteresis;
    size_t converged = 0;
    double dev_sum = 0.0;
    while (!session.done()) {
        session.step();
        const double dev = crossCircDeviation(
            sys.datacenter(), session.lastDecision().utils);
        dev_sum += dev;
        if (dev <= band) {
            ++converged;
            if (out.conv_step < 0.0)
                out.conv_step =
                    static_cast<double>(session.cursor());
        }
    }
    const double steps = static_cast<double>(trace.numSteps());
    out.mean_dev = dev_sum / steps;
    out.conv_frac = static_cast<double>(converged) / steps;
    if (bal != nullptr)
        out.migrations = static_cast<double>(
            bal->stats().migrations + bal->stats().local_moves);
    auto result = session.finish();
    out.avg_teg_w = result.summary.avg_teg_w;
    out.pre = result.summary.pre;
    return out;
}

/** CI gate 1: disabled balancer == Scheduler::decideInto, bitwise. */
int
smokeSeedIdentity()
{
    const size_t servers = 64;
    core::H2PConfig cfg = baseConfig(servers, 8);
    core::H2PSystem sys(cfg);
    auto trace = makeTrace(21, servers, 3600.0);
    for (sched::Policy policy :
         {sched::Policy::TegOriginal, sched::Policy::TegLoadBalance}) {
        auto session = sys.startSession(trace, policy);
        const oracle::Scheduler ref(sys.datacenter(), sys.optimizer(),
                                    policy);
        sched::ScheduleDecision want;
        while (!session.done()) {
            session.step();
            ref.decideInto(session.lastUtils(), {}, want);
            const sched::ScheduleDecision &got =
                session.lastDecision();
            for (size_t i = 0; i < want.utils.size(); ++i) {
                if (!sameBits(got.utils[i], want.utils[i])) {
                    std::cerr << "FAIL: " << toString(policy)
                              << " step " << session.cursor()
                              << " server " << i
                              << ": pipeline utilization diverged "
                                 "from the scheduler oracle\n";
                    return 1;
                }
            }
            for (size_t c = 0; c < want.settings.size(); ++c) {
                if (!sameBits(got.settings[c].t_in_c,
                              want.settings[c].t_in_c) ||
                    !sameBits(got.settings[c].flow_lph,
                              want.settings[c].flow_lph)) {
                    std::cerr << "FAIL: " << toString(policy)
                              << " step " << session.cursor()
                              << " circulation " << c
                              << ": pipeline cooling setting "
                                 "diverged from the scheduler "
                                 "oracle\n";
                    return 1;
                }
            }
        }
    }
    std::cout << "ok: balancer-disabled pipelines are bit-identical "
                 "to Scheduler::decideInto for both policies\n";
    return 0;
}

/** CI gate 2: an operator drain empties its loop within the budget. */
int
smokeDrainBudget()
{
    const size_t budget = 4;
    core::H2PConfig cfg = baseConfig(64, 8);
    cfg.balancer.enabled = true;
    cfg.balancer.drain_rate = 1.0;
    core::H2PSystem sys(cfg);
    auto trace = makeTrace(33, 64, 3600.0);
    auto session =
        sys.startSession(trace, sched::Policy::TegLoadBalance);
    auto *bal = static_cast<control::ThermalBalancer *>(
        session.pipeline()->find(control::ThermalBalancer::kName));
    bal->requestDrain(2);
    for (size_t i = 0; i < budget; ++i)
        session.step();
    const control::CirculationView &row = bal->view()[2];
    if (row.mode != control::CircMode::Draining ||
        row.avg_util != 0.0 || bal->stats().drains_completed < 1) {
        std::cerr << "FAIL: drained circulation still carries "
                  << row.avg_util << " average utilization after "
                  << budget << " intervals (mode "
                  << control::toString(row.mode)
                  << ", completed drains "
                  << bal->stats().drains_completed << ")\n";
        return 1;
    }
    std::cout << "ok: operator drain emptied circulation 2 within "
              << budget << " intervals\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        argc > 1 && std::string(argv[1]) == "--smoke";
    if (smoke) {
        int rc = smokeSeedIdentity();
        if (rc == 0)
            rc = smokeDrainBudget();
        return rc;
    }

    const size_t servers = 128;
    const size_t per_circ = 16;
    const double duration_s = 4.0 * 3600.0;
    const std::vector<uint64_t> seeds = {11, 42, 777};

    TablePrinter table(
        "Ablation - autonomous balancer vs static TEG_LoadBalance "
        "(drastic profile, 128 servers / 8 circulations)");
    table.setHeader({"variant", "teg[W]", "PRE", "mean|dev|",
                     "conv@step", "conv%", "moves"});
    CsvTable csv({"seed", "balancer", "avg_teg_w", "pre", "mean_dev",
                  "conv_step", "conv_frac", "moves"});

    double pre_static = 0.0, pre_tuned = 0.0, dev_static = 0.0,
           dev_tuned = 0.0;
    for (uint64_t seed : seeds) {
        VariantResult st =
            runVariant(seed, servers, per_circ, duration_s, false);
        VariantResult ba =
            runVariant(seed, servers, per_circ, duration_s, true);
        VariantResult tu = runVariant(seed, servers, per_circ,
                                      duration_s, true,
                                      /*max_move=*/1.0,
                                      /*max_pulls=*/64);
        pre_static += st.pre;
        pre_tuned += tu.pre;
        dev_static += st.mean_dev;
        dev_tuned += tu.mean_dev;
        const std::string tag = "seed " + std::to_string(seed);
        table.addRow(tag + " static",
                     {st.avg_teg_w, st.pre, st.mean_dev,
                      st.conv_step, 100.0 * st.conv_frac,
                      st.migrations},
                     3);
        table.addRow(tag + " balancer",
                     {ba.avg_teg_w, ba.pre, ba.mean_dev,
                      ba.conv_step, 100.0 * ba.conv_frac,
                      ba.migrations},
                     3);
        table.addRow(tag + " balancer+",
                     {tu.avg_teg_w, tu.pre, tu.mean_dev,
                      tu.conv_step, 100.0 * tu.conv_frac,
                      tu.migrations},
                     3);
        csv.addRow({double(seed), 0.0, st.avg_teg_w, st.pre,
                    st.mean_dev, st.conv_step, st.conv_frac,
                    st.migrations});
        csv.addRow({double(seed), 1.0, ba.avg_teg_w, ba.pre,
                    ba.mean_dev, ba.conv_step, ba.conv_frac,
                    ba.migrations});
        csv.addRow({double(seed), 2.0, tu.avg_teg_w, tu.pre,
                    tu.mean_dev, tu.conv_step, tu.conv_frac,
                    tu.migrations});
    }
    table.print(std::cout);
    bench::saveCsv(csv, "ablation_balancer");

    const double n = static_cast<double>(seeds.size());
    std::cout << "\nCross-circulation mean |deviation|: "
              << strings::fixed(dev_static / n, 4) << " static vs "
              << strings::fixed(dev_tuned / n, 4)
              << " with uncapped pulls (balancer+); PRE "
              << strings::fixed(pre_static / n, 4) << " -> "
              << strings::fixed(pre_tuned / n, 4)
              << ". The default caps (max_move 0.1, 8 pulls) bound "
                 "per-interval migration cost and give up a little "
                 "PRE against the paper's idealized one-shot "
                 "flatten; loosening them recovers it while also "
                 "converging the cross-circulation deviation the "
                 "static scheme never touches. Drain mode and the "
                 "central view come along at either setting.\n";
    return 0;
}
