/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   h2p_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
 *
 * Workloads: paper-day, fault-sweep, twin-service (see
 * BENCHMARK.json for why each exists). Progress goes to stderr; the
 * last line of stdout is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * with the end-to-end metrics under --trace 0 and the per-layer ones
 * under --trace 1. Exit status is 0 whenever a result was printed
 * (correctness is reported in the JSON), non-zero on usage errors.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"

namespace {

using namespace perfbench;

/** Linear-interpolated quantile @p q of @p v (sorted in place). */
double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::vector<Metric>
endToEnd(Report &r)
{
    return {
        {"unit_cpu_p50_ms", quantile(r.cpu_ms, 0.50), "ms"},
        {"unit_cpu_p90_ms", quantile(r.cpu_ms, 0.90), "ms"},
        {"setup_s", quantile(r.setup_s, 0.5), "s"},
    };
}

std::vector<Metric>
perLayer(Report &r)
{
    const Layers &l = r.layers;
    const double units = static_cast<double>(std::max<uint64_t>(l.units, 1));
    const double steps = static_cast<double>(std::max<uint64_t>(l.steps, 1));
    const uint64_t lookups = l.cache_hits + l.cache_misses;
    const double timed = static_cast<double>(r.unit_ms.size());
    return {
        {"unit_wall_p50_ms", quantile(r.unit_ms, 0.50), "ms"},
        {"units_per_s", r.window_s > 0.0 ? timed / r.window_s : 0.0, "1/s"},
        {"dispatch_us", l.dispatch_ns / units / 1e3, "us"},
        {"session_us", l.session_ns / units / 1e3, "us"},
        {"step_us", l.step_ns / steps / 1e3, "us"},
        {"decide_us", l.decide_ns / steps / 1e3, "us"},
        {"evaluate_us", l.evaluate_ns / steps / 1e3, "us"},
        {"step_other_us",
         (l.step_ns - l.decide_ns - l.evaluate_ns) / steps / 1e3, "us"},
        {"steps", static_cast<double>(l.steps), "count"},
        {"units", static_cast<double>(l.units), "count"},
        {"cache_hit_ratio",
         lookups > 0 ? static_cast<double>(l.cache_hits) /
                           static_cast<double>(lookups)
                     : 0.0,
         "ratio"},
    };
}

int
usage(const std::string &msg)
{
    std::cerr << "h2p_perfbench: " << msg
              << "\nusage: h2p_perfbench --workload "
                 "paper-day|fault-sweep|twin-service "
                 "--seed <n> --seconds <s> --trace 0|1\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds > 0.0))
                return usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace must be 0 or 1");
            opt.trace = value == "1";
        } else {
            return usage("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0')
            return usage("bad number for " + flag + ": " + value);
    }
    if (!have_workload)
        return usage("--workload is required");

    using Runner = Report (*)(const Options &);
    const std::vector<std::pair<std::string, Runner>> runners = {
        {"paper-day", runPaperDay},
        {"fault-sweep", runFaultSweep},
        {"twin-service", runTwinService},
    };
    Runner runner = nullptr;
    for (const auto &[name, fn] : runners)
        if (name == opt.workload)
            runner = fn;
    if (runner == nullptr)
        return usage("unknown workload " + opt.workload);

    Report report;
    try {
        report = runner(opt);
    } catch (const std::exception &e) {
        std::cerr << "h2p_perfbench: " << opt.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }
    if (report.units() == 0 || report.cpu_ms.empty())
        report.check(false, "no unit completed in the window");

    std::vector<Metric> metrics =
        opt.trace ? perLayer(report) : endToEnd(report);
    for (Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            report.check(false, m.name + " is not finite");
            m.value = 0.0;
        }
    }
    if (!report.correct)
        std::cerr << "h2p_perfbench: INCORRECT: " << report.why << "\n";

    std::ostringstream os;
    os << std::setprecision(12);
    os << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << std::max<uint64_t>(report.attempted, 1)
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}
