#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

#include "util/error.h"

namespace h2p {
namespace util {

namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

size_t
hardwareThreads()
{
#if defined(__linux__)
    // The affinity mask (taskset, cpusets, pinned containers) bounds
    // the threads that can run at once; hardware_concurrency() counts
    // every online CPU regardless. A mask wider than cpu_set_t makes
    // the call fail, which falls through to the portable count.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        int usable = CPU_COUNT(&mask);
        if (usable > 0)
            return static_cast<size_t>(usable);
    }
#endif
    size_t n = std::thread::hardware_concurrency();
#if defined(_SC_NPROCESSORS_ONLN)
    if (n == 0) {
        long onln = sysconf(_SC_NPROCESSORS_ONLN);
        if (onln > 0)
            n = static_cast<size_t>(onln);
    }
#endif
    return n == 0 ? 1 : n;
}

size_t
hostHardwareThreads()
{
    size_t n = hardwareThreads();
#if defined(_SC_NPROCESSORS_CONF)
    long conf = sysconf(_SC_NPROCESSORS_CONF);
    if (conf > 0)
        n = std::max(n, static_cast<size_t>(conf));
#endif
    return n;
}

ThreadPool::ThreadPool(size_t workers)
{
    if (workers == 0)
        workers = hardwareThreads();
    workers_ = workers;
    errors_.resize(workers_);
    threads_.reserve(workers_ - 1);
    // Worker t serves chunk t + 1; the calling thread serves chunk 0.
    for (size_t t = 1; t < workers_; ++t)
        threads_.emplace_back([this, t] { workerLoop(t); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    start_cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::chunkRange(size_t n, size_t parts, size_t part,
                       size_t &begin, size_t &end)
{
    H2P_ASSERT(parts >= 1 && part < parts, "bad chunk request");
    begin = n / parts * part + std::min(part, n % parts);
    end = begin + n / parts + (part < n % parts ? 1 : 0);
}

void
ThreadPool::runChunk(size_t part)
{
    size_t begin, end;
    chunkRange(job_n_, workers_, part, begin, end);
    const bool timed = stats_enabled_.load(std::memory_order_relaxed);
    const uint64_t t0 = timed ? nowNs() : 0;
    try {
        for (size_t i = begin; i < end; ++i)
            (*job_fn_)(i);
    } catch (...) {
        errors_[part] = std::current_exception();
    }
    if (timed)
        stat_busy_ns_.fetch_add(nowNs() - t0,
                                std::memory_order_relaxed);
}

void
ThreadPool::runDynamic()
{
    const bool timed = stats_enabled_.load(std::memory_order_relaxed);
    const uint64_t t0 = timed ? nowNs() : 0;
    for (;;) {
        size_t i = job_cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= job_n_)
            break;
        try {
            (*job_fn_)(i);
        } catch (...) {
            // Keep the exception of the lowest failing index so the
            // surfaced error does not depend on worker timing.
            std::lock_guard<std::mutex> lock(mutex_);
            if (dyn_error_ == nullptr || i < dyn_error_index_) {
                dyn_error_ = std::current_exception();
                dyn_error_index_ = i;
            }
        }
    }
    if (timed)
        stat_busy_ns_.fetch_add(nowNs() - t0,
                                std::memory_order_relaxed);
}

void
ThreadPool::parallelForDynamic(size_t n,
                               const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    const bool timed = stats_enabled_.load(std::memory_order_relaxed);
    const uint64_t t0 = timed ? nowNs() : 0;
    if (workers_ == 1) {
        // Same contract as the threaded path: every index runs, the
        // lowest failing index's exception is rethrown at the end.
        std::exception_ptr first;
        for (size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (first == nullptr)
                    first = std::current_exception();
            }
        }
        if (timed) {
            const uint64_t dt = nowNs() - t0;
            stat_jobs_.fetch_add(1, std::memory_order_relaxed);
            stat_wall_ns_.fetch_add(dt, std::memory_order_relaxed);
            stat_busy_ns_.fetch_add(dt, std::memory_order_relaxed);
        }
        if (first)
            std::rethrow_exception(first);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_fn_ = &fn;
        job_n_ = n;
        job_dynamic_ = true;
        job_cursor_.store(0, std::memory_order_relaxed);
        dyn_error_ = nullptr;
        dyn_error_index_ = 0;
        pending_ = workers_ - 1;
        ++generation_;
    }
    start_cv_.notify_all();

    runDynamic();

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] { return pending_ == 0; });
        job_fn_ = nullptr;
        job_dynamic_ = false;
        error = dyn_error_;
        dyn_error_ = nullptr;
    }
    if (timed) {
        stat_jobs_.fetch_add(1, std::memory_order_relaxed);
        stat_wall_ns_.fetch_add(nowNs() - t0,
                                std::memory_order_relaxed);
    }
    if (error)
        std::rethrow_exception(error);
}

ThreadPool::PoolStats
ThreadPool::stats() const
{
    PoolStats s;
    s.jobs = stat_jobs_.load(std::memory_order_relaxed);
    s.wall_ns = stat_wall_ns_.load(std::memory_order_relaxed);
    s.busy_ns = stat_busy_ns_.load(std::memory_order_relaxed);
    return s;
}

void
ThreadPool::resetStats()
{
    stat_jobs_.store(0, std::memory_order_relaxed);
    stat_wall_ns_.store(0, std::memory_order_relaxed);
    stat_busy_ns_.store(0, std::memory_order_relaxed);
}

void
ThreadPool::workerLoop(size_t worker_index)
{
    uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [this, seen] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
        }
        if (job_dynamic_)
            runDynamic();
        else
            runChunk(worker_index);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
        }
        done_cv_.notify_one();
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    const bool timed = stats_enabled_.load(std::memory_order_relaxed);
    const uint64_t t0 = timed ? nowNs() : 0;
    if (workers_ == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        if (timed) {
            const uint64_t dt = nowNs() - t0;
            stat_jobs_.fetch_add(1, std::memory_order_relaxed);
            stat_wall_ns_.fetch_add(dt, std::memory_order_relaxed);
            stat_busy_ns_.fetch_add(dt, std::memory_order_relaxed);
        }
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_fn_ = &fn;
        job_n_ = n;
        pending_ = workers_ - 1;
        std::fill(errors_.begin(), errors_.end(), nullptr);
        ++generation_;
    }
    start_cv_.notify_all();

    runChunk(0);

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] { return pending_ == 0; });
        job_fn_ = nullptr;
    }
    if (timed) {
        stat_jobs_.fetch_add(1, std::memory_order_relaxed);
        stat_wall_ns_.fetch_add(nowNs() - t0,
                                std::memory_order_relaxed);
    }
    for (std::exception_ptr &e : errors_) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace util
} // namespace h2p
