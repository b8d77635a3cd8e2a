/**
 * @file
 * Shared types of the repository benchmark (perfbench/).
 *
 * Every workload measures one *unit* of user-visible work — a paper
 * day, a sweep point or a service interaction — for a fixed wall-clock
 * window, checks the outputs, and reports:
 *
 *  - end to end (tracing off): percentiles of the CPU time a unit
 *    costs, and the median of several from-scratch set-ups. CPU time
 *    rather than wall time, because on a shared host the wall time of
 *    the same work swings with how much of the machine the neighbours
 *    take, while the CPU time the program spends on it does not (the
 *    kernel leaves time stolen by the hypervisor out of it);
 *  - per layer (tracing on, a separate run): where a unit's time went,
 *    nested outside in — dispatch (the benchmark's call down to the
 *    layer that owns the run: the socket for the service, the sweep
 *    scheduler for sweeps) -> session (building, wrapping and
 *    finishing runs; the broker's verb handling) -> engine step, split
 *    by the program's own spans into decide / evaluate / the rest —
 *    plus the wall-clock latency and rate, which include the waiting.
 */

#ifndef H2P_PERFBENCH_BENCH_H_
#define H2P_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <time.h>

#include "core/sim_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/** CPU time @p clock (a CLOCK_*_CPUTIME_ID) has consumed so far, ns. */
inline double
cpuNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

/** CPU time of the calling thread so far, ns. */
inline double
threadCpuNs()
{
    return cpuNs(CLOCK_THREAD_CPUTIME_ID);
}

/** CPU time of every thread of the process so far, ns. */
inline double
processCpuNs()
{
    return cpuNs(CLOCK_PROCESS_CPUTIME_ID);
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    /** Per-layer (traced) run instead of the end-to-end one. */
    bool trace = false;
};

/** Raw per-layer totals a traced run accumulates. */
struct Layers
{
    /** Time between the benchmark's call and the session layer. */
    double dispatch_ns = 0.0;
    /** Session-layer time outside engine steps. */
    double session_ns = 0.0;
    /** Engine step time ("step" span) and its two named stages. */
    double step_ns = 0.0;
    double decide_ns = 0.0;
    double evaluate_ns = 0.0;
    uint64_t steps = 0;
    uint64_t units = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;

    /**
     * Fold one run's engine spans and optimizer counters in, from its
     * [obs] csv_path export; the file is removed.
     */
    void addEngineCsv(const std::string &path);

  private:
    void addSpan(const std::string &name, uint64_t count,
                 double total_ns);
    void addCounter(const std::string &name, uint64_t value);
};

/** What one workload run produced. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    /** First reason the outputs were judged wrong. */
    std::string why;
    /** Wall-clock latency of every unit completed in the window, ms. */
    std::vector<double> unit_ms;
    /**
     * CPU time per unit, ms, one sample per batch of units (a whole
     * sweep; a block of service requests) as the batch's mean: a batch
     * mixes cheap and costly units in fixed shares, so the median of
     * its samples does not flip between their levels.
     */
    std::vector<double> cpu_ms;
    /** Measured window, seconds. */
    double window_s = 0.0;
    /** Duration of each from-scratch set-up, seconds. */
    std::vector<double> setup_s;
    Layers layers;

    /** Units completed: timed ones, or traced ones under --trace 1. */
    size_t units() const
    {
        return std::max<size_t>(unit_ms.size(), layers.units);
    }

    void check(bool ok, const std::string &reason)
    {
        if (!ok && correct) {
            correct = false;
            why = reason;
        }
    }
};

/** Deterministic sub-seed @p k of the run seed (splitmix64). */
uint64_t subSeed(uint64_t seed, uint64_t k);

/** Exact (bitwise) equality of the summary fields runs report. */
bool sameSummary(const h2p::core::RunSummary &a,
                 const h2p::core::RunSummary &b);

/** Finite, physically plausible run summary. */
bool plausible(const h2p::core::RunSummary &s);

Report runPaperDay(const Options &options);
Report runFaultSweep(const Options &options);
Report runTwinService(const Options &options);

} // namespace perfbench

#endif // H2P_PERFBENCH_BENCH_H_
