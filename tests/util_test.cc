/**
 * @file
 * Unit tests for the util module: errors, strings, CSV, tables,
 * interpolation, time series, RNG and unit conversions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "tests/support/number_format_reference.h"
#include "util/cancellation.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/fs.h"
#include "util/interpolate.h"
#include "util/number_format.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/time_series.h"
#include "util/units.h"

namespace h2p {
namespace {

// ---------------------------------------------------------------- error

TEST(ErrorTest, FatalThrowsWithMessage)
{
    try {
        fatal("bad value: ", 42);
        FAIL() << "fatal() must throw";
    } catch (const Error &e) {
        EXPECT_STREQ(e.what(), "bad value: 42");
    }
}

TEST(ErrorTest, ExpectPassesOnTrue)
{
    EXPECT_NO_THROW(expect(true, "never"));
}

TEST(ErrorTest, ExpectThrowsOnFalse)
{
    EXPECT_THROW(expect(false, "boom"), Error);
}

TEST(ErrorTest, AssertPassesOnTrue)
{
    H2P_ASSERT(1 + 1 == 2, "arithmetic");
    SUCCEED();
}

TEST(ErrorDeathTest, AssertAbortsOnFalse)
{
    EXPECT_DEATH(H2P_ASSERT(false, "invariant ", 7), "invariant 7");
}

// -------------------------------------------------------------- strings

TEST(StringsTest, SplitKeepsEmptyFields)
{
    auto f = strings::split("a,,b,", ',');
    ASSERT_EQ(f.size(), 4u);
    EXPECT_EQ(f[0], "a");
    EXPECT_EQ(f[1], "");
    EXPECT_EQ(f[2], "b");
    EXPECT_EQ(f[3], "");
}

TEST(StringsTest, SplitSingleField)
{
    auto f = strings::split("alone", ',');
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], "alone");
}

TEST(StringsTest, TrimRemovesBothEnds)
{
    EXPECT_EQ(strings::trim("  x y \t\n"), "x y");
    EXPECT_EQ(strings::trim(""), "");
    EXPECT_EQ(strings::trim("   "), "");
}

TEST(StringsTest, StartsWith)
{
    EXPECT_TRUE(strings::startsWith("teg_power", "teg"));
    EXPECT_FALSE(strings::startsWith("teg", "teg_power"));
}

TEST(StringsTest, ToDoubleParsesValid)
{
    EXPECT_DOUBLE_EQ(strings::toDouble("3.25"), 3.25);
    EXPECT_DOUBLE_EQ(strings::toDouble(" -1e3 "), -1000.0);
}

TEST(StringsTest, ToDoubleRejectsGarbage)
{
    EXPECT_THROW(strings::toDouble("12x"), Error);
    EXPECT_THROW(strings::toDouble(""), Error);
}

TEST(StringsTest, ToLongParses)
{
    EXPECT_EQ(strings::toLong("42"), 42);
    EXPECT_EQ(strings::toLong(" -7 "), -7);
    EXPECT_THROW(strings::toLong("3.5"), Error);
}

TEST(StringsTest, FixedFormatsDigits)
{
    EXPECT_EQ(strings::fixed(3.14159, 2), "3.14");
    EXPECT_EQ(strings::fixed(2.0, 3), "2.000");
}

// -------------------------------------------------------- number format

/**
 * Checks util::writeDouble against the iostream reference; counts the
 * values whose bytes differ and keeps the first for the report.
 */
struct NumberFormatCheck
{
    size_t mismatches = 0;
    std::string first;

    void operator()(double x)
    {
        char buf[util::kDoubleChars];
        const std::string got(buf, util::writeDouble(buf, x));
        const std::string want = oracle::iostreamDouble(x);
        if (got != want && mismatches++ == 0)
            first = "to_chars `" + got + "' vs iostream `" + want + "'";
    }
};

TEST(NumberFormatTest, MatchesIostreamsOnEdgeValues)
{
    using lim = std::numeric_limits<double>;
    NumberFormatCheck check;
    for (double x :
         {0.0, -0.0, lim::denorm_min(), -lim::denorm_min(), lim::min(),
          lim::max(), lim::lowest(), lim::epsilon(), 1e308, -1e308,
          1e-308, -1e-308, 0.1, 1.0 / 3.0, 9007199254740992.0,
          9007199254740993.0, 1e16, 1e17, 123456789012345680.0,
          lim::infinity(), -lim::infinity(), lim::quiet_NaN(),
          -lim::quiet_NaN()})
        check(x);
    // Every power of ten a double can hold, written as a literal.
    for (int e = -323; e <= 308; ++e)
        check(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
    EXPECT_EQ(check.mismatches, 0u) << check.first;
}

TEST(NumberFormatTest, MatchesIostreamsOnRandomDoubles)
{
    std::mt19937_64 rng(0x48325032u);
    NumberFormatCheck check;
    for (int i = 0; i < 50000; ++i) {
        // Any finite bit pattern.
        uint64_t bits = rng();
        double x;
        std::memcpy(&x, &bits, sizeof x);
        if (std::isfinite(x))
            check(x);
        // A subnormal: zero exponent, random sign and mantissa.
        bits &= 0x800fffffffffffffull;
        std::memcpy(&x, &bits, sizeof x);
        check(x);
        // An integer up to 2^53, both signs.
        const double n = static_cast<double>(rng() >> 11);
        check(n);
        check(-n);
    }
    EXPECT_EQ(check.mismatches, 0u) << check.first;
}

// ------------------------------------------------------------------ csv

TEST(CsvTest, RoundTripThroughStream)
{
    CsvTable t({"a", "b"});
    t.addRow({1.0, 2.0});
    t.addRow({3.5, -4.0});
    std::stringstream ss;
    t.write(ss);
    CsvTable r = CsvTable::read(ss, true);
    ASSERT_EQ(r.numRows(), 2u);
    EXPECT_EQ(r.columns(), (std::vector<std::string>{"a", "b"}));
    EXPECT_DOUBLE_EQ(r.at(1, 0), 3.5);
    EXPECT_DOUBLE_EQ(r.at(1, 1), -4.0);
}

TEST(CsvTest, SkipsCommentsAndBlanks)
{
    std::stringstream ss("# comment\n\na,b\n1,2\n# more\n3,4\n");
    CsvTable t = CsvTable::read(ss, true);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_DOUBLE_EQ(t.at(1, 1), 4.0);
}

TEST(CsvTest, RejectsRaggedRows)
{
    CsvTable t({"a", "b"});
    EXPECT_THROW(t.addRow({1.0}), Error);
}

TEST(CsvTest, ColumnExtraction)
{
    CsvTable t({"x", "y"});
    t.addRow({1, 10});
    t.addRow({2, 20});
    EXPECT_EQ(t.column(1), (std::vector<double>{10, 20}));
}

TEST(CsvTest, BadNumberReportsLine)
{
    std::stringstream ss("a\n1\nbogus\n");
    EXPECT_THROW(CsvTable::read(ss, true), Error);
}

TEST(CsvTest, HeaderlessRead)
{
    std::stringstream ss("1,2\n3,4\n");
    CsvTable t = CsvTable::read(ss, false);
    EXPECT_TRUE(t.columns().empty());
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numCols(), 2u);
}

// ---------------------------------------------------------------- table

TEST(TableTest, AlignsColumns)
{
    TablePrinter t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow("longer", {2.5}, 1);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("2.5"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TableTest, RejectsWidthMismatch)
{
    TablePrinter t;
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), Error);
}

// ---------------------------------------------------------- interpolate

TEST(GridAxisTest, CoordsAndLocate)
{
    GridAxis ax(0.0, 10.0, 11);
    EXPECT_DOUBLE_EQ(ax.coord(0), 0.0);
    EXPECT_DOUBLE_EQ(ax.coord(10), 10.0);
    size_t i;
    double t;
    ax.locate(3.5, i, t);
    EXPECT_EQ(i, 3u);
    EXPECT_NEAR(t, 0.5, 1e-12);
}

TEST(GridAxisTest, LocateClampsOutOfRange)
{
    GridAxis ax(0.0, 1.0, 2);
    size_t i;
    double t;
    ax.locate(-5.0, i, t);
    EXPECT_EQ(i, 0u);
    EXPECT_DOUBLE_EQ(t, 0.0);
    ax.locate(9.0, i, t);
    EXPECT_EQ(i, 0u);
    EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(GridAxisTest, RejectsDegenerate)
{
    EXPECT_THROW(GridAxis(0.0, 1.0, 1), Error);
    EXPECT_THROW(GridAxis(1.0, 1.0, 3), Error);
}

TEST(Interp3DTest, ReproducesTrilinearExactly)
{
    GridAxis ax(0.0, 1.0, 3), ay(0.0, 1.0, 3), az(0.0, 1.0, 3);
    std::vector<double> vals;
    for (size_t i = 0; i < 3; ++i)
        for (size_t j = 0; j < 3; ++j)
            for (size_t k = 0; k < 3; ++k)
                vals.push_back(ax.coord(i) + 2.0 * ay.coord(j) +
                               4.0 * az.coord(k));
    LinearGrid3D f(ax, ay, az, vals);
    EXPECT_NEAR(f(0.3, 0.7, 0.9), 0.3 + 1.4 + 3.6, 1e-12);
}

TEST(Interp3DTest, ClampsBeyondEdges)
{
    GridAxis a(0.0, 1.0, 2);
    LinearGrid3D f(a, a, a, std::vector<double>(8, 5.0));
    EXPECT_DOUBLE_EQ(f(-3.0, 9.0, 0.5), 5.0);
}

TEST(Interp3DTest, RejectsWrongValueCount)
{
    GridAxis a(0.0, 1.0, 2);
    EXPECT_THROW(LinearGrid3D(a, a, a, std::vector<double>(7)), Error);
}

// ------------------------------------------------------------ timeseries

TEST(TimeSeriesTest, BasicStats)
{
    TimeSeries ts(10.0, {1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(ts.size(), 4u);
    EXPECT_DOUBLE_EQ(ts.mean(), 2.5);
    EXPECT_DOUBLE_EQ(ts.max(), 4.0);
    EXPECT_DOUBLE_EQ(ts.min(), 1.0);
    EXPECT_DOUBLE_EQ(ts.duration(), 40.0);
    EXPECT_DOUBLE_EQ(ts.integral(), 100.0);
    EXPECT_DOUBLE_EQ(ts.timeOf(2), 20.0);
}

TEST(TimeSeriesTest, EmptySeriesBehaviour)
{
    TimeSeries ts(1.0);
    EXPECT_TRUE(ts.empty());
    EXPECT_DOUBLE_EQ(ts.mean(), 0.0);
    EXPECT_THROW(ts.max(), Error);
    EXPECT_THROW(ts.at(0), Error);
}

TEST(TimeSeriesTest, AdditionAndScaling)
{
    TimeSeries a(1.0, {1, 2});
    TimeSeries b(1.0, {10, 20});
    TimeSeries c = a + b;
    EXPECT_DOUBLE_EQ(c.at(1), 22.0);
    TimeSeries wrong(2.0, {1, 2});
    EXPECT_THROW(a + wrong, Error);
}

TEST(TimeSeriesTest, RejectsNonPositivePeriod)
{
    EXPECT_THROW(TimeSeries(0.0), Error);
    EXPECT_THROW(TimeSeries(-1.0), Error);
}

// ---------------------------------------------------------------- random

TEST(RngTest, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, ForkIsDeterministicAndIndependent)
{
    Rng parent(9);
    Rng f1 = parent.fork(3);
    double first = f1.uniform();
    // Draw on the parent; re-forking must give the same child stream.
    parent.uniform();
    Rng f2 = parent.fork(3);
    EXPECT_DOUBLE_EQ(f2.uniform(), first);
    // Different ids give different streams.
    Rng f3 = parent.fork(4);
    EXPECT_NE(f3.uniform(), first);
}

TEST(RngTest, UniformRespectsBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform(2.0, 3.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(RngTest, TruncNormalStaysInRange)
{
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.truncNormal(0.0, 10.0, -1.0, 1.0);
        EXPECT_GE(x, -1.0);
        EXPECT_LE(x, 1.0);
    }
}

TEST(RngTest, NormalMomentsApproximate)
{
    Rng rng(7);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal(5.0, 2.0);
        sum += x;
        sum2 += x * x;
    }
    double mean = sum / n;
    double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(RngTest, PoissonMeanApproximate)
{
    Rng rng(8);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.poisson(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.1);
    EXPECT_EQ(rng.poisson(0.0), 0);
}

// ----------------------------------------------------------------- units

TEST(UnitsTest, FlowConversionRoundTrip)
{
    double kgps = units::litresPerHourToKgPerSec(3600.0);
    EXPECT_DOUBLE_EQ(kgps, 1.0);
    EXPECT_DOUBLE_EQ(
        units::litresPerHourToKgPerSec(2.5 * units::kSecondsPerHour), 2.5);
}

TEST(UnitsTest, TemperatureConversion)
{
    EXPECT_DOUBLE_EQ(units::celsiusToKelvin(0.0), 273.15);
    EXPECT_DOUBLE_EQ(units::celsiusToKelvin(100.0), 373.15);
}

TEST(UnitsTest, EnergyConversion)
{
    EXPECT_DOUBLE_EQ(units::joulesToKwh(3.6e6), 1.0);
    EXPECT_DOUBLE_EQ(units::joulesToKwh(7.2e6), 2.0);
}

TEST(UnitsTest, StreamCapacitanceRateAt20Lph)
{
    // 20 L/H of water: 20/3600 kg/s * 4200 J/(kg K) = 23.33 W/K.
    EXPECT_NEAR(units::streamCapacitanceRate(20.0), 23.333, 0.01);
}

// ------------------------------------------------------ atomic writes

TEST(FsTest, AtomicWriteFileWritesAndReplaces)
{
    const std::string path = "util_test_atomic.txt";
    util::atomicWriteFile(path, "first\n");
    {
        std::ifstream is(path);
        std::string all((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
        EXPECT_EQ(all, "first\n");
    }

    // Replacing an existing file goes through the same temp+rename:
    // readers never observe a truncated intermediate.
    util::atomicWriteFile(path, [](std::ostream &os) {
        os << "second, via stream writer";
    });
    {
        std::ifstream is(path);
        std::string all((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
        EXPECT_EQ(all, "second, via stream writer");
    }
    std::remove(path.c_str());
}

TEST(FsTest, ReplaceFileReplacesWholeAndLeavesNoTemp)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "util_test_replace";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "telemetry.csv").string();
    util::atomicWriteFile(path, "a longer previous version\n");

    util::replaceFile(path, [](std::ostream &os) { os << "new\n"; });
    std::ifstream is(path);
    std::string all((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(all, "new\n"); // no tail of the longer file survives

    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{"telemetry.csv"});
    std::filesystem::remove_all(dir);
}

TEST(FsTest, AtomicWriteFileFailsLoudlyOnBadDestination)
{
    const std::string bad = "util_test_no_dir/sub/file.txt";
    try {
        util::atomicWriteFile(bad, "payload");
        FAIL() << "write into a missing directory was accepted";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("util_test_no_dir"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(util::atomicWriteFile("", "x"), Error);
}

// ------------------------------------------------------ cancel token

TEST(CancelTokenTest, LatchesAndResets)
{
    util::CancelToken token;
    EXPECT_FALSE(token.cancelRequested());
    token.requestCancel();
    EXPECT_TRUE(token.cancelRequested());
    token.requestCancel(); // idempotent
    EXPECT_TRUE(token.cancelRequested());
    token.reset();
    EXPECT_FALSE(token.cancelRequested());
}

TEST(HardwareThreadsTest, HonorsTheAffinityMask)
{
#if defined(__linux__)
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    // The mask count, capped by a cgroup v2 CPU quota when one is set.
    size_t expected = static_cast<size_t>(CPU_COUNT(&saved));
    std::ifstream cpu_max("/sys/fs/cgroup/cpu.max");
    std::string line;
    if (cpu_max && std::getline(cpu_max, line) &&
        util::cpuMaxThreads(line) > 0)
        expected = std::min(expected, util::cpuMaxThreads(line));
    EXPECT_EQ(util::hardwareThreads(), expected);

    // Pin to one CPU of the current mask, as `taskset -c N` would.
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const size_t pinned = util::hardwareThreads();
    const size_t host = util::hostHardwareThreads();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);

    EXPECT_EQ(pinned, 1u);
    EXPECT_GE(host, static_cast<size_t>(CPU_COUNT(&saved)));
#else
    EXPECT_GE(util::hardwareThreads(), 1u);
#endif
}

TEST(HardwareThreadsTest, ParsesCgroupCpuMax)
{
    EXPECT_EQ(util::cpuMaxThreads("max 100000"), 0u);
    EXPECT_EQ(util::cpuMaxThreads("max 100000\n"), 0u);
    EXPECT_EQ(util::cpuMaxThreads("150000 100000"), 2u);
    EXPECT_EQ(util::cpuMaxThreads("50000 100000"), 1u);
    EXPECT_EQ(util::cpuMaxThreads("200000 100000\n"), 2u);
    EXPECT_EQ(util::cpuMaxThreads("garbage"), 0u);
    EXPECT_EQ(util::cpuMaxThreads("100000"), 0u);
    EXPECT_EQ(util::cpuMaxThreads("0 100000"), 0u);
    EXPECT_EQ(util::cpuMaxThreads("-50000 100000"), 0u);
    EXPECT_EQ(util::cpuMaxThreads("150000 100000 7"), 0u);
    EXPECT_EQ(util::cpuMaxThreads(""), 0u);
}

} // namespace
} // namespace h2p
