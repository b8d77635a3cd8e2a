#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace h2p {
namespace util {

size_t
cpuMaxThreads(const std::string &cpu_max)
{
    std::istringstream in(cpu_max);
    long long quota = 0, period = 0;
    std::string rest;
    if (!(in >> quota >> period) || quota <= 0 || period <= 0 ||
        in >> rest)
        return 0;
    return static_cast<size_t>((quota + period - 1) / period);
}

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
        size_t usable = static_cast<size_t>(CPU_COUNT(&mask));
        if (usable > 0) {
            // A CPU quota (docker --cpus, Kubernetes limits) throttles
            // the process to that many CPUs' worth of time per period
            // however many it may be scheduled on.
            std::ifstream f("/sys/fs/cgroup/cpu.max");
            std::string line;
            if (f && std::getline(f, line)) {
                const size_t quota = cpuMaxThreads(line);
                if (quota > 0)
                    usable = std::min(usable, quota);
            }
            return usable;
        }
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

void
parallelForDynamic(size_t n, size_t workers,
                   const std::function<void(size_t)> &fn)
{
    if (workers == 0)
        workers = hardwareThreads();
    workers = std::min(workers, n);

    std::atomic<size_t> cursor{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    size_t error_index = n;
    auto drain = [&] {
        for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
             i < n; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
            try {
                fn(i);
            } catch (...) {
                // Keep the exception of the lowest failing index so
                // the surfaced error does not depend on worker timing.
                std::lock_guard<std::mutex> lock(error_mutex);
                if (i < error_index) {
                    error = std::current_exception();
                    error_index = i;
                }
            }
        }
    };

    std::vector<std::thread> threads;
    try {
        for (size_t t = 1; t < workers; ++t)
            threads.emplace_back(drain);
    } catch (const std::system_error &) {
        // Out of threads: the ones already running and the caller
        // still drain every index.
    }
    drain();
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace util
} // namespace h2p
