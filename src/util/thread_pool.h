/**
 * @file
 * A small deterministic thread pool for the simulation hot path.
 *
 * The pool exists for two job shapes:
 *
 *  - parallelFor: fan a fixed index range out across a fixed set of
 *    workers with *static* partitioning (worker w owns one contiguous
 *    chunk whose bounds depend only on n and the worker count), so
 *    which thread evaluates which index never depends on timing.
 *  - parallelForDynamic: the work-stealing flavor for *uneven* jobs
 *    (e.g. whole simulation runs of different lengths): indices are
 *    claimed one at a time from a shared atomic cursor, so a worker
 *    that finishes early takes the next pending index instead of
 *    idling. Which thread runs which index then depends on timing —
 *    callers must keep per-index work independent.
 *
 * In both shapes callers write results into per-index slots and reduce
 * serially in index order afterwards, which makes parallel evaluation
 * bit-identical to the serial loop; the pool itself never reorders or
 * combines anything.
 */

#ifndef H2P_UTIL_THREAD_POOL_H_
#define H2P_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace h2p {
namespace util {

/**
 * Hardware threads available to *this process*, always >= 1: on
 * Linux the CPUs in the process's affinity mask (sched_getaffinity),
 * otherwise std::thread::hardware_concurrency() with a fallback to
 * the online-processor count when it reports 0 (which the standard
 * permits). A cgroup cpu.max quota is not consulted. Use this to size
 * thread pools.
 */
size_t hardwareThreads();

/**
 * Hardware threads of the *host*, always >= 1. hardwareThreads()
 * honors the process CPU-affinity mask, so a pinned or containerized
 * process on a multi-core machine may see 1; this consults the
 * configured-processor count as well and returns the larger. Use
 * this for reporting (bench metadata), not for sizing pools — threads
 * beyond the affinity mask cannot run in parallel.
 */
size_t hostHardwareThreads();

/**
 * Fixed-size pool of long-lived workers executing static-partitioned
 * index ranges. Construction spawns the workers once; parallelFor
 * blocks the calling thread (which itself works on the first chunk)
 * until every index is done.
 */
class ThreadPool
{
  public:
    /**
     * @param workers Total worker count including the calling thread;
     *        0 means one worker per hardware thread. A pool of one
     *        worker spawns no threads and runs everything inline.
     */
    explicit ThreadPool(size_t workers = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total worker count including the calling thread. */
    size_t workers() const { return workers_; }

    /**
     * Invoke @p fn(i) for every i in [0, n), statically partitioned
     * across the workers. Blocks until all indices are done. If any
     * invocation throws, the exception from the lowest-numbered chunk
     * is rethrown here (others are discarded); the pool stays usable.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Invoke @p fn(i) for every i in [0, n) with *dynamic* chunking:
     * each worker (including the calling thread) repeatedly claims the
     * next unclaimed index from a shared cursor. Blocks until all
     * indices are done. Use for jobs whose per-index cost varies a lot
     * — run-level batch execution — where static chunks would leave
     * workers idle. If invocations throw, the exception of the
     * lowest-numbered failing index is rethrown (others are
     * discarded); remaining unclaimed indices still run. The pool
     * stays usable afterwards.
     */
    void parallelForDynamic(size_t n,
                            const std::function<void(size_t)> &fn);

    /**
     * The static partition: chunk @p part of @p parts over [0, n).
     * Chunks are contiguous, cover [0, n) exactly, and differ in size
     * by at most one; trailing chunks may be empty when n < parts.
     */
    static void chunkRange(size_t n, size_t parts, size_t part,
                           size_t &begin, size_t &end);

    /** Cumulative utilization counters; see stats(). */
    struct PoolStats
    {
        /** parallelFor calls completed. */
        uint64_t jobs = 0;
        /** Wall time spent inside parallelFor, summed over calls. */
        uint64_t wall_ns = 0;
        /** Per-chunk compute time, summed over chunks and calls. */
        uint64_t busy_ns = 0;
    };

    /**
     * Turn utilization accounting on or off (off by default). When on,
     * every parallelFor records its wall time and each chunk its busy
     * time — two clock reads per chunk, nothing per index. The
     * observability layer scrapes the totals at run end.
     */
    void enableStats(bool on) { stats_enabled_.store(on); }

    /** Snapshot of the cumulative counters. */
    PoolStats stats() const;

    /** Zero the cumulative counters. */
    void resetStats();

  private:
    void workerLoop(size_t worker_index);
    void runChunk(size_t part);
    void runDynamic();

    size_t workers_;
    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    bool shutdown_ = false;
    uint64_t generation_ = 0;

    // Current job (valid while pending_ > 0).
    const std::function<void(size_t)> *job_fn_ = nullptr;
    size_t job_n_ = 0;
    size_t pending_ = 0;
    std::vector<std::exception_ptr> errors_;

    // Dynamic-job state (parallelForDynamic only).
    bool job_dynamic_ = false;
    std::atomic<size_t> job_cursor_{0};
    std::exception_ptr dyn_error_;
    size_t dyn_error_index_ = 0;

    std::atomic<bool> stats_enabled_{false};
    std::atomic<uint64_t> stat_jobs_{0};
    std::atomic<uint64_t> stat_wall_ns_{0};
    std::atomic<uint64_t> stat_busy_ns_{0};
};

} // namespace util
} // namespace h2p

#endif // H2P_UTIL_THREAD_POOL_H_
