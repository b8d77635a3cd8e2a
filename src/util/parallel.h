/**
 * @file
 * Run-level parallelism: the hardware-thread queries that size worker
 * counts, and one dynamic fork-join over an index range.
 *
 * A simulation run is always a single serial step loop; parallelism
 * lives one level up, across independent runs (SweepEngine), and in
 * set-up, across the servers of a generated trace
 * (workload::TraceGenerator). Runs differ in length, so indices are
 * claimed one at a time from a shared atomic cursor and a worker that
 * finishes early takes the next pending index instead of idling.
 * Which thread runs which index depends on timing, so callers keep
 * per-index work independent, write results into per-index slots and
 * reduce in index order afterwards.
 */

#ifndef H2P_UTIL_PARALLEL_H_
#define H2P_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <string>

namespace h2p {
namespace util {

/**
 * Hardware threads available to *this process*, always >= 1: on
 * Linux the CPUs in the process's affinity mask (sched_getaffinity),
 * further capped by a cgroup v2 CPU quota (/sys/fs/cgroup/cpu.max,
 * see cpuMaxThreads); elsewhere std::thread::hardware_concurrency()
 * with a fallback to the online-processor count when it reports 0
 * (which the standard permits). Use this to size worker counts.
 */
size_t hardwareThreads();

/**
 * Hardware threads of the *host*, always >= 1. hardwareThreads()
 * honors the process CPU-affinity mask and quota, so a pinned or
 * containerized process on a multi-core machine may see 1; this
 * consults the configured-processor count as well and returns the
 * larger. Use this for reporting (bench metadata), not for sizing
 * workers — threads beyond the affinity mask cannot run in parallel.
 */
size_t hostHardwareThreads();

/**
 * Threads a cgroup v2 `cpu.max` line grants: ceil(quota / period)
 * for "<quota> <period>" with both positive, e.g. "150000 100000"
 * -> 2. Returns 0 (no limit) for "max <period>" and for anything
 * malformed, including an empty string.
 */
size_t cpuMaxThreads(const std::string &cpu_max);

/**
 * Invoke @p fn(i) for every i in [0, n) on @p workers threads (0 =
 * hardwareThreads(); never more than n): workers-1 threads are
 * spawned and the calling thread takes indices too, each claiming the
 * next unclaimed index from a shared cursor. Returns once every index
 * has run. If invocations throw, every other index still runs and the
 * exception of the lowest failing index is rethrown (the others are
 * discarded). A single worker runs everything inline, same contract.
 */
void parallelForDynamic(size_t n, size_t workers,
                        const std::function<void(size_t)> &fn);

} // namespace util
} // namespace h2p

#endif // H2P_UTIL_PARALLEL_H_
