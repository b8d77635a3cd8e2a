/**
 * @file
 * Config-file-driven experiment runner.
 *
 * Describes a full H2P experiment as a small INI file (datacenter
 * layout, TEG/thermal calibration, optimizer setpoints, trace class)
 * and runs it, printing the evaluation summary and optionally
 * exporting per-step channels. With no --config the built-in defaults
 * (the paper's configuration) run.
 *
 * Runs execute through the incremental session API, so a run can be
 * checkpointed mid-trace and resumed later — bit-identically:
 *
 *   # run both schemes, export the balance run's channels
 *   ./examples/experiment_runner --config my_experiment.ini \
 *                                --out run.csv
 *
 *   # save a checkpoint after step 144, stop there
 *   ./examples/experiment_runner --policy balance \
 *       --checkpoint run.ckpt --checkpoint-at 144 \
 *       --halt-at-checkpoint
 *
 *   # pick the run back up and finish it
 *   ./examples/experiment_runner --policy balance \
 *       --checkpoint run.ckpt --resume --jsonl rest.jsonl
 *
 * Example INI:
 *
 *   [datacenter]
 *   num_servers = 500
 *   cold_source_c = 15
 *   [optimizer]
 *   t_safe_c = 65
 *   [trace]
 *   profile = irregular
 *   seed = 7
 *
 * --sweep turns one experiment description into a batched grid: each
 * `section.key=v1,v2,...' dimension overrides that INI key, dimensions
 * cross-multiply, and the whole grid runs on core::SweepEngine (all
 * points share the trace and, where configs agree, the look-up table):
 *
 *   # 3 x 2 grid, batched across workers, summaries to sweep.csv
 *   ./examples/experiment_runner \
 *       --sweep "optimizer.t_safe_c=57,63,69;datacenter.cold_source_c=15,25" \
 *       --sweep-out sweep.csv
 *
 * Sweeps are supervised: a point that diverges or blows its
 * --point-deadline is quarantined (reported, exit code 2) instead of
 * aborting the grid. With --sweep-journal every finished point is
 * journaled durably, and a killed sweep resumes where it left off:
 *
 *   # crash-safe sweep; kill -9 it at any time...
 *   ./examples/experiment_runner --sweep "..." \
 *       --sweep-journal sweep.journal --sweep-out sweep.csv
 *
 *   # ...then pick it up again; completed points are not re-run and
 *   # sweep.csv comes out byte-identical to an uninterrupted run
 *   ./examples/experiment_runner --sweep "..." \
 *       --sweep-journal sweep.journal --sweep-resume \
 *       --sweep-out sweep.csv
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/config_io.h"
#include "core/h2p_system.h"
#include "core/sweep_engine.h"
#include "util/args.h"
#include "util/error.h"
#include "util/fs.h"
#include "util/signal.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

std::vector<h2p::sched::Policy>
parsePolicies(const std::string &name)
{
    using h2p::sched::Policy;
    if (name == "both")
        return {Policy::TegOriginal, Policy::TegLoadBalance};
    if (name == "original")
        return {Policy::TegOriginal};
    if (name == "balance")
        return {Policy::TegLoadBalance};
    throw h2p::Error("--policy must be original, balance or both, "
                     "not `" +
                     name + "'");
}

/** One --sweep dimension: an INI key and the values to cross. */
struct SweepDimension
{
    std::string section;
    std::string key;
    std::vector<std::string> values;
};

/** Parse `section.key=v1,v2;section.key=v1,...' into dimensions. */
std::vector<SweepDimension>
parseSweepSpec(const std::string &spec)
{
    using namespace h2p;
    std::vector<SweepDimension> dims;
    for (const std::string &part : strings::split(spec, ';')) {
        std::string dim_text = strings::trim(part);
        if (dim_text.empty())
            continue;
        size_t eq = dim_text.find('=');
        expect(eq != std::string::npos, "--sweep dimension `",
               dim_text, "' has no `='");
        std::string name = strings::trim(dim_text.substr(0, eq));
        size_t dot = name.find('.');
        expect(dot != std::string::npos && dot > 0 &&
                   dot + 1 < name.size(),
               "--sweep key `", name, "' must be section.key");
        SweepDimension dim;
        dim.section = name.substr(0, dot);
        dim.key = name.substr(dot + 1);
        for (const std::string &v :
             strings::split(dim_text.substr(eq + 1), ','))
            if (!strings::trim(v).empty())
                dim.values.push_back(strings::trim(v));
        expect(!dim.values.empty(), "--sweep dimension `", name,
               "' has no values");
        dims.push_back(dim);
    }
    expect(!dims.empty(), "--sweep spec has no dimensions");
    return dims;
}

/** Everything --sweep-* collects from the command line. */
struct SweepCliOptions
{
    size_t workers = 0;
    std::string out_path;
    std::string journal_path;
    bool resume = false;
    double point_deadline_s = 0.0;
    bool quiet = false;
};

/**
 * Run the --sweep grid: the cross product of every dimension's
 * values (x the policy list), batched on core::SweepEngine.
 *
 * With --sweep-journal the run is crash-safe: each finished point is
 * recorded durably before its result is delivered, and --sweep-resume
 * picks an interrupted sweep back up, re-running only the missing
 * points. The summary CSV is buffered and written atomically at the
 * end, so a resumed sweep produces a byte-identical file.
 */
int
runSweep(const h2p::sim::Config &base_ini, const std::string &spec,
         const std::vector<h2p::sched::Policy> &policies,
         const SweepCliOptions &cli)
{
    using namespace h2p;
    std::vector<SweepDimension> dims = parseSweepSpec(spec);

    // Expand the cross product: variant v picks value
    // (v / stride_d) % |values_d| of dimension d, so the first
    // dimension varies slowest — the order the spec reads in.
    size_t variants = 1;
    for (const SweepDimension &dim : dims)
        variants *= dim.values.size();
    expect(variants * policies.size() <= 10000,
           "--sweep grid has ", variants * policies.size(),
           " points; keep it at or below 10000");

    std::vector<sim::Config> configs;
    std::vector<std::string> labels;
    for (size_t v = 0; v < variants; ++v) {
        sim::Config ini = base_ini;
        std::string label;
        size_t stride = variants;
        for (const SweepDimension &dim : dims) {
            stride /= dim.values.size();
            const std::string &value =
                dim.values[(v / stride) % dim.values.size()];
            ini.set(dim.section, dim.key, value);
            if (!label.empty())
                label += " ";
            label += dim.section + "." + dim.key + "=" + value;
        }
        configs.push_back(ini);
        labels.push_back(label);
    }

    // One trace drives every point, sized for the largest fleet in
    // the grid so a num_servers dimension never starves a point.
    core::TraceRequest treq = core::traceRequestFromIni(base_ini);
    size_t max_servers = treq.servers;
    for (const sim::Config &ini : configs)
        max_servers =
            std::max(max_servers, static_cast<size_t>(
                                      core::configFromIni(ini)
                                          .datacenter.num_servers));
    treq.servers = max_servers;
    workload::UtilizationTrace trace = core::makeTrace(treq);

    std::vector<core::SweepPoint> grid;
    for (size_t v = 0; v < variants; ++v) {
        for (sched::Policy policy : policies) {
            core::SweepPoint pt;
            pt.config = core::configFromIni(configs[v]);
            pt.trace = &trace;
            pt.policy = policy;
            pt.label = labels[v];
            grid.push_back(pt);
        }
    }

    // Summary rows are buffered and written atomically at the end:
    // a crashed sweep leaves no half-written CSV, and a resumed one
    // reproduces the clean run's file byte for byte.
    std::ostringstream csv;
    csv << "index,label,policy,teg_avg_w,teg_peak_w,pre,"
           "t_in_avg_c,safe_fraction,status,fail_kind,fail_step,"
           "fail_stage\n";

    TablePrinter table("sweep results");
    table.setHeader({"point", "TEG avg[W]", "PRE[%]", "avg T_in[C]",
                     "safe[%]"});
    core::SweepOptions options;
    options.workers = cli.workers;
    options.keep_recorders = false; // summaries only; O(1) memory
    options.journal_path = cli.journal_path;
    options.point_deadline_s = cli.point_deadline_s;
    // Ctrl-C / SIGTERM stop the sweep at the next step boundary:
    // pending points are skipped and the journal stays resumable.
    options.cancel = &util::signalCancelToken();
    core::SweepEngine engine(options);
    auto on_result = [&](const core::SweepPointResult &r) {
        if (r.status == core::PointStatus::Completed)
            table.addRow(r.label + " " + toString(r.policy),
                         {r.summary.avg_teg_w, 100.0 * r.summary.pre,
                          r.summary.avg_t_in_c,
                          100.0 * r.summary.safe_fraction},
                         2);
        csv << r.index << "," << r.label << ","
            << toString(r.policy) << ",";
        if (r.status == core::PointStatus::Completed)
            csv << strings::fixed(r.summary.avg_teg_w, 6) << ","
                << strings::fixed(r.summary.peak_teg_w, 6) << ","
                << strings::fixed(r.summary.pre, 8) << ","
                << strings::fixed(r.summary.avg_t_in_c, 6) << ","
                << strings::fixed(r.summary.safe_fraction, 6) << ","
                << toString(r.status) << ",,,\n";
        else
            csv << ",,,,," << toString(r.status) << ","
                << toString(r.failure.kind) << ","
                << (r.failure.step == RunFailure::kNoStep
                        ? std::string()
                        : std::to_string(r.failure.step))
                << "," << r.failure.stage << "\n";
    };
    core::SweepResult result = cli.resume
                                   ? engine.resume(grid, on_result)
                                   : engine.run(grid, on_result);

    table.print(std::cout);
    if (result.quarantined > 0) {
        for (const core::SweepPointResult &r : result.points)
            if (r.status == core::PointStatus::Quarantined)
                std::cout << "quarantined: point " << r.index << " ("
                          << r.label << " " << toString(r.policy)
                          << "): " << r.failure.describe() << "\n";
    }
    if (!cli.quiet) {
        std::cout << "\nsweep: " << result.runs_completed << " runs, "
                  << result.workers << " worker(s), "
                  << result.lookup_spaces_built
                  << " look-up table(s) built, "
                  << strings::fixed(result.wall_s, 2) << " s\n";
        if (result.quarantined || result.retries ||
            result.points_restored)
            std::cout << "supervision: " << result.quarantined
                      << " quarantined, " << result.retries
                      << " retrie(s), " << result.points_restored
                      << " restored from journal\n";
    }
    if (result.cancelled && util::lastCancelSignal() != 0) {
        // Interrupted by a signal: leave any previous summary CSV
        // untouched (the partial grid would silently replace it) and
        // exit with the conventional 128+N code. The journal has
        // every finished point.
        std::cout << "\ninterrupted by signal "
                  << util::lastCancelSignal() << " after "
                  << result.runs_completed << " of " << grid.size()
                  << " points";
        if (!cli.journal_path.empty())
            std::cout << "; resume with --sweep-resume --sweep-journal "
                      << cli.journal_path;
        std::cout << "\n";
        return 128 + util::lastCancelSignal();
    }
    if (!cli.out_path.empty()) {
        util::atomicWriteFile(cli.out_path, csv.str());
        std::cout << "summaries -> " << cli.out_path << "\n";
    }
    return result.quarantined > 0 ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace h2p;
    try {
        ArgParser args("experiment_runner",
                       "Run an H2P experiment described by an INI "
                       "config (see file header).");
        args.addString("config", "", "path to the experiment INI");
        args.addString("out", "", "per-step CSV export path");
        args.addString("jsonl", "", "per-step JSONL export path");
        args.addString("policy", "both",
                       "scheme: original, balance or both");
        args.addString("checkpoint", "",
                       "checkpoint file (written with "
                       "--checkpoint-at, read with --resume)");
        args.addLong("checkpoint-at", -1,
                     "save a checkpoint once this many steps have "
                     "been evaluated");
        args.addFlag("halt-at-checkpoint",
                     "stop right after saving the checkpoint");
        args.addFlag("resume",
                     "resume the run from --checkpoint instead of "
                     "starting fresh");
        args.addFlag("quiet", "suppress the config echo");
        args.addString("sweep", "",
                       "grid spec `section.key=v1,v2;...': cross "
                       "product of INI overrides, batched on the "
                       "sweep engine");
        args.addLong("sweep-workers", 0,
                     "sweep worker threads (0 = one per hardware "
                     "thread)");
        args.addString("sweep-out", "",
                       "per-point summary CSV path for --sweep");
        args.addString("sweep-journal", "",
                       "crash-safe sweep journal path (e.g. "
                       "sweep.journal); each finished point is "
                       "recorded durably");
        args.addFlag("sweep-resume",
                     "resume an interrupted sweep from "
                     "--sweep-journal, re-running only missing "
                     "points");
        args.addDouble("point-deadline", 0.0,
                       "wall-clock budget per sweep point in "
                       "seconds (0 = none); overruns are retried "
                       "once, then quarantined");
        args.addFlag("balancer",
                     "enable the autonomous thermal balancer "
                     "([balancer] enabled = 1) on top of the config; "
                     "with [balancer] max_stale_steps set, a "
                     "non-converging point fails as config_error and "
                     "--sweep quarantines it with exact step/stage "
                     "attribution");
        if (!args.parse(argc, argv))
            return 0;

        // From here on Ctrl-C / SIGTERM cancel cooperatively instead
        // of killing mid-write; a second signal kills immediately.
        util::installSignalCancel();

        sim::Config ini;
        if (!args.getString("config").empty())
            ini = sim::Config::load(args.getString("config"));
        // --balancer layers on top of (and overrides) the config
        // file, so one flag flips a whole sweep grid to balancer
        // pipelines without editing the INI.
        if (args.getFlag("balancer"))
            ini.set("balancer", "enabled", "1");

        if (!args.getString("sweep").empty()) {
            expect(args.getString("checkpoint").empty(),
                   "--sweep and checkpointing do not mix");
            expect(!args.getFlag("sweep-resume") ||
                       !args.getString("sweep-journal").empty(),
                   "--sweep-resume needs --sweep-journal PATH");
            SweepCliOptions cli;
            cli.workers = static_cast<size_t>(
                std::max(0L, args.getLong("sweep-workers")));
            cli.out_path = args.getString("sweep-out");
            cli.journal_path = args.getString("sweep-journal");
            cli.resume = args.getFlag("sweep-resume");
            cli.point_deadline_s = args.getDouble("point-deadline");
            cli.quiet = args.getFlag("quiet");
            return runSweep(ini, args.getString("sweep"),
                            parsePolicies(args.getString("policy")),
                            cli);
        }

        core::H2PConfig cfg = core::configFromIni(ini);
        core::TraceRequest treq = core::traceRequestFromIni(ini);
        if (treq.servers == 0)
            treq.servers = cfg.datacenter.num_servers;

        const std::string ckpt = args.getString("checkpoint");
        const long ckpt_at = args.getLong("checkpoint-at");
        const bool resume = args.getFlag("resume");
        expect(ckpt_at < 0 || !ckpt.empty(),
               "--checkpoint-at needs --checkpoint PATH");
        expect(!resume || !ckpt.empty(),
               "--resume needs --checkpoint PATH");

        std::vector<sched::Policy> policies =
            parsePolicies(args.getString("policy"));
        expect((ckpt_at < 0 && !resume) || policies.size() == 1,
               "checkpointing works on a single scheme; pick "
               "--policy original or balance");

        if (!args.getFlag("quiet")) {
            std::cout << "experiment: " << cfg.datacenter.num_servers
                      << " servers, "
                      << cfg.datacenter.servers_per_circulation
                      << "/circulation, cold source "
                      << cfg.datacenter.cold_source_c
                      << " C, T_safe " << cfg.optimizer.t_safe_c
                      << " C, trace seed " << treq.seed << "\n\n";
        }

        core::H2PSystem sys(cfg);
        auto trace = core::makeTrace(treq);

        TablePrinter table("results");
        table.setHeader({"scheme", "TEG avg[W]", "TEG peak[W]",
                         "PRE[%]", "avg T_in[C]", "safe[%]"});
        bool any_finished = false;
        for (auto policy : policies) {
            core::SimSession session =
                resume ? sys.resumeSession(ckpt, trace)
                       : sys.startSession(trace, policy);
            core::RunGuard guard;
            guard.cancel = &util::signalCancelToken();
            session.setGuard(guard);

            if (!resume && ckpt_at >= 0) {
                while (!session.done() &&
                       session.cursor() < static_cast<size_t>(ckpt_at))
                    session.step();
                session.saveCheckpoint(ckpt);
                if (!args.getFlag("quiet"))
                    std::cout << "checkpoint (step "
                              << session.cursor() << ") -> " << ckpt
                              << "\n";
                if (args.getFlag("halt-at-checkpoint"))
                    continue;
            }

            try {
                session.runToCompletion();
            } catch (const RunError &e) {
                if (e.failure().kind != FailureKind::Cancelled)
                    throw;
                std::cout << "interrupted by signal "
                          << util::lastCancelSignal() << " at step "
                          << session.cursor()
                          << "; re-run with --checkpoint PATH "
                             "--checkpoint-at N to make a run "
                             "resumable\n";
                return 128 + util::lastCancelSignal();
            }
            auto r = session.finish();
            any_finished = true;
            table.addRow(toString(r.summary.policy),
                         {r.summary.avg_teg_w, r.summary.peak_teg_w,
                          100.0 * r.summary.pre,
                          r.summary.avg_t_in_c,
                          100.0 * r.summary.safe_fraction},
                         2);

            // With both schemes running, the exports carry the
            // balance run (the paper's headline scheme).
            if (policies.size() > 1 &&
                r.summary.policy != sched::Policy::TegLoadBalance)
                continue;
            if (!args.getString("out").empty()) {
                r.recorder->saveCsv(args.getString("out"));
                std::cout << "channels -> " << args.getString("out")
                          << "\n";
            }
            if (!args.getString("jsonl").empty()) {
                std::ofstream os(args.getString("jsonl"));
                expect(os.good(), "cannot open `",
                       args.getString("jsonl"), "'");
                r.recorder->writeJsonl(os);
            }
        }
        if (any_finished)
            table.print(std::cout);
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
