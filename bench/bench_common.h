/**
 * @file
 * Shared helpers for the reproduction benches: every bench prints its
 * figure/table rows through TablePrinter and mirrors them to CSV under
 * ./bench_results/ so they can be plotted.
 */

#ifndef H2P_BENCH_BENCH_COMMON_H_
#define H2P_BENCH_BENCH_COMMON_H_

#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "util/csv.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace h2p {
namespace bench {

/** Directory bench CSVs are written to (created on demand). */
inline std::string
resultsDir()
{
    static const std::string dir = [] {
        std::string d = "bench_results";
        std::error_code ec;
        std::filesystem::create_directories(d, ec);
        return d;
    }();
    return dir;
}

/** Save @p table as <name>.csv under the results directory. */
inline void
saveCsv(const CsvTable &table, const std::string &name)
{
    std::string path = resultsDir() + "/" + name + ".csv";
    try {
        table.save(path);
        std::cout << "[csv] " << path << "\n";
    } catch (const Error &e) {
        warn("could not save ", path, ": ", e.what());
    }
}

#ifndef H2P_BUILD_TYPE
#define H2P_BUILD_TYPE "unknown"
#endif
#ifndef H2P_GIT_SHA
#define H2P_GIT_SHA "unknown"
#endif

/**
 * The host lines every BENCH file opens with: hardware threads of the
 * host and of this process, compiler, optimization level, CMake build
 * type and the commit of the checkout (both from configure time,
 * bench/CMakeLists.txt).
 */
inline std::string
hostJson()
{
    std::ostringstream os;
    os << "  \"host_hardware_threads\": " << util::hostHardwareThreads()
       << ",\n"
       << "  \"process_usable_threads\": " << util::hardwareThreads()
       << ",\n"
#if defined(__GNUC__) && !defined(__clang__)
       << "  \"compiler\": \"gcc " __VERSION__ "\",\n"
#else
       << "  \"compiler\": \"" __VERSION__ "\",\n"
#endif
#if defined(__OPTIMIZE__)
       << "  \"optimized\": true,\n"
#else
       << "  \"optimized\": false,\n"
#endif
       << "  \"build_type\": \"" H2P_BUILD_TYPE "\",\n"
       << "  \"git_sha\": \"" H2P_GIT_SHA "\",\n";
    return os.str();
}

} // namespace bench
} // namespace h2p

#endif // H2P_BENCH_BENCH_COMMON_H_
