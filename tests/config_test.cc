/**
 * @file
 * Tests for the configuration stack: the argument parser, the INI
 * parser, and the H2PConfig binding.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config_io.h"
#include "sim/config.h"
#include "tests/support/mutate.h"
#include "util/args.h"
#include "util/error.h"
#include "util/logging.h"

namespace h2p {
namespace {

// ------------------------------------------------------------------ args

TEST(ArgsTest, DefaultsApplyWhenUnset)
{
    ArgParser args("prog");
    args.addString("name", "foo", "a name")
        .addDouble("x", 2.5, "a number")
        .addLong("n", 7, "a count")
        .addFlag("fast", "go fast");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_EQ(args.getString("name"), "foo");
    EXPECT_DOUBLE_EQ(args.getDouble("x"), 2.5);
    EXPECT_EQ(args.getLong("n"), 7);
    EXPECT_FALSE(args.getFlag("fast"));
}

TEST(ArgsTest, ParsesValuesAndFlags)
{
    ArgParser args("prog");
    args.addString("name", "foo", "");
    args.addDouble("x", 0.0, "");
    args.addFlag("fast", "");
    const char *argv[] = {"prog", "--name", "bar", "--x", "3.5",
                          "--fast"};
    ASSERT_TRUE(args.parse(6, argv));
    EXPECT_EQ(args.getString("name"), "bar");
    EXPECT_DOUBLE_EQ(args.getDouble("x"), 3.5);
    EXPECT_TRUE(args.getFlag("fast"));
}

TEST(ArgsTest, HelpReturnsFalse)
{
    ArgParser args("prog");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(args.parse(2, argv));
}

TEST(ArgsTest, RejectsUnknownAndMalformed)
{
    ArgParser args("prog");
    args.addDouble("x", 0.0, "");
    const char *bad_name[] = {"prog", "--y", "1"};
    EXPECT_THROW(args.parse(3, bad_name), Error);
    const char *bad_value[] = {"prog", "--x", "abc"};
    EXPECT_THROW(args.parse(3, bad_value), Error);
    const char *missing[] = {"prog", "--x"};
    EXPECT_THROW(args.parse(2, missing), Error);
    const char *positional[] = {"prog", "stray"};
    EXPECT_THROW(args.parse(2, positional), Error);
}

TEST(ArgsTest, TypeMismatchAccessThrows)
{
    ArgParser args("prog");
    args.addDouble("x", 1.0, "");
    const char *argv[] = {"prog"};
    args.parse(1, argv);
    EXPECT_THROW(args.getString("x"), Error);
    EXPECT_THROW(args.getDouble("missing"), Error);
}

TEST(ArgsTest, UsageListsOptions)
{
    ArgParser args("prog", "does things");
    args.addLong("count", 3, "how many");
    std::string u = args.usage();
    EXPECT_NE(u.find("--count"), std::string::npos);
    EXPECT_NE(u.find("how many"), std::string::npos);
    EXPECT_NE(u.find("default: 3"), std::string::npos);
}

TEST(ArgsTest, RejectsDuplicateDeclaration)
{
    ArgParser args("prog");
    args.addFlag("x", "");
    EXPECT_THROW(args.addDouble("x", 1.0, ""), Error);
}

// ---------------------------------------------------------------- config

TEST(ConfigTest, ParsesSectionsAndValues)
{
    std::stringstream ss(
        "# comment\n[alpha]\nx = 1.5\nname = hello\n\n"
        "[beta]\nn = 42\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_DOUBLE_EQ(cfg.getDouble("alpha", "x"), 1.5);
    EXPECT_EQ(cfg.getString("alpha", "name"), "hello");
    EXPECT_EQ(cfg.getLong("beta", "n"), 42);
    EXPECT_EQ(cfg.sections(),
              (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(cfg.keys("alpha"),
              (std::vector<std::string>{"name", "x"}));
}

TEST(ConfigTest, DefaultsWhenAbsent)
{
    std::stringstream ss("[s]\nk = 1\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_DOUBLE_EQ(cfg.getDouble("s", "missing", 9.0), 9.0);
    EXPECT_EQ(cfg.getLong("other", "k", 5), 5);
    EXPECT_EQ(cfg.getString("s", "missing", "d"), "d");
}

TEST(ConfigTest, ErrorsCarryContext)
{
    std::stringstream ss("[s]\nk = abc\n");
    sim::Config cfg = sim::Config::parse(ss);
    try {
        cfg.getDouble("s", "k");
        FAIL() << "expected an error";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("[s] k"),
                  std::string::npos);
    }
}

TEST(ConfigTest, RejectsMalformedInput)
{
    std::stringstream no_section("k = 1\n");
    EXPECT_THROW(sim::Config::parse(no_section), Error);
    std::stringstream bad_header("[oops\nk = 1\n");
    EXPECT_THROW(sim::Config::parse(bad_header), Error);
    std::stringstream no_eq("[s]\njust text\n");
    EXPECT_THROW(sim::Config::parse(no_eq), Error);
}

TEST(ConfigTest, RoundTripThroughWrite)
{
    sim::Config cfg;
    cfg.set("a", "x", "1.25");
    cfg.set("b", "y", "hello");
    std::stringstream ss;
    cfg.write(ss);
    sim::Config back = sim::Config::parse(ss);
    EXPECT_DOUBLE_EQ(back.getDouble("a", "x"), 1.25);
    EXPECT_EQ(back.getString("b", "y"), "hello");
}

TEST(ConfigTest, LoadRejectsMissingFile)
{
    EXPECT_THROW(sim::Config::load("/nonexistent/h2p.ini"), Error);
}

TEST(ConfigTest, RejectsNonFiniteNumbers)
{
    // strtod happily consumes "1e400" (overflow -> inf), "inf" and
    // "nan"; none of them is a usable simulation parameter, so the
    // typed accessor must reject them with the section/key context.
    std::stringstream ss(
        "[s]\nover = 1e400\nneg = -1e400\ninfinity = inf\nnan = nan\n"
        "ok = 1.5\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_THROW(cfg.getDouble("s", "over"), Error);
    EXPECT_THROW(cfg.getDouble("s", "neg"), Error);
    EXPECT_THROW(cfg.getDouble("s", "infinity"), Error);
    EXPECT_THROW(cfg.getDouble("s", "nan"), Error);
    EXPECT_DOUBLE_EQ(cfg.getDouble("s", "ok"), 1.5);
    try {
        cfg.getDouble("s", "over");
        FAIL() << "expected an error";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("[s] over"),
                  std::string::npos);
    }
}

TEST(ConfigTest, RejectsTrailingGarbageAndEmptyValues)
{
    // Pins the parse contract: partial parses never pass silently.
    std::stringstream ss("[s]\ngarbage = 1.5x\nempty =\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_THROW(cfg.getDouble("s", "garbage"), Error);
    EXPECT_THROW(cfg.getDouble("s", "empty"), Error);
    EXPECT_THROW(cfg.getLong("s", "garbage"), Error);
}

TEST(ConfigTest, RejectsDuplicateKeys)
{
    // A duplicated key silently overwrote its first value; the last
    // writer won and the user never learned the file was ambiguous.
    std::stringstream ss("[s]\nk = 1\nk = 2\n");
    try {
        sim::Config::parse(ss);
        FAIL() << "expected an error";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate key"), std::string::npos);
        EXPECT_NE(msg.find("line 3"), std::string::npos);
    }
    // The same key in different sections is fine.
    std::stringstream ok("[a]\nk = 1\n[b]\nk = 2\n");
    EXPECT_NO_THROW(sim::Config::parse(ok));
}

TEST(ConfigTest, ParsesBooleans)
{
    std::stringstream ss(
        "[s]\na = true\nb = FALSE\nc = 1\nd = 0\ne = on\nf = Off\n"
        "g = yes\nh = no\nbad = maybe\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_TRUE(cfg.getBool("s", "a"));
    EXPECT_FALSE(cfg.getBool("s", "b"));
    EXPECT_TRUE(cfg.getBool("s", "c"));
    EXPECT_FALSE(cfg.getBool("s", "d"));
    EXPECT_TRUE(cfg.getBool("s", "e"));
    EXPECT_FALSE(cfg.getBool("s", "f"));
    EXPECT_TRUE(cfg.getBool("s", "g"));
    EXPECT_FALSE(cfg.getBool("s", "h"));
    EXPECT_THROW(cfg.getBool("s", "bad"), Error);
    EXPECT_TRUE(cfg.getBool("s", "missing", true));
    EXPECT_FALSE(cfg.getBool("s", "missing", false));
}

// -------------------------------------------------------------- bindings

TEST(ConfigIoTest, EmptyIniYieldsDefaults)
{
    sim::Config ini;
    core::H2PConfig cfg = core::configFromIni(ini);
    core::H2PConfig defaults;
    EXPECT_EQ(cfg.datacenter.num_servers,
              defaults.datacenter.num_servers);
    EXPECT_DOUBLE_EQ(cfg.optimizer.t_safe_c,
                     defaults.optimizer.t_safe_c);
    EXPECT_DOUBLE_EQ(cfg.datacenter.server.teg.voc_slope,
                     defaults.datacenter.server.teg.voc_slope);
}

TEST(ConfigIoTest, OverridesApply)
{
    std::stringstream ss(
        "[datacenter]\nnum_servers = 64\ncold_source_c = 15\n"
        "[optimizer]\nt_safe_c = 66\n"
        "[teg]\nresistance_ohm = 2.5\n");
    sim::Config ini = sim::Config::parse(ss);
    core::H2PConfig cfg = core::configFromIni(ini);
    EXPECT_EQ(cfg.datacenter.num_servers, 64u);
    EXPECT_DOUBLE_EQ(cfg.datacenter.cold_source_c, 15.0);
    EXPECT_DOUBLE_EQ(cfg.optimizer.t_safe_c, 66.0);
    EXPECT_DOUBLE_EQ(cfg.datacenter.server.teg.resistance_ohm, 2.5);
}

TEST(ConfigIoTest, TraceRequestParsing)
{
    std::stringstream ss(
        "[trace]\nprofile = irregular\nseed = 9\nservers = 32\n");
    sim::Config ini = sim::Config::parse(ss);
    core::TraceRequest req = core::traceRequestFromIni(ini);
    EXPECT_EQ(req.profile, workload::TraceProfile::Irregular);
    EXPECT_EQ(req.seed, 9u);
    EXPECT_EQ(req.servers, 32u);
    auto trace = core::makeTrace(req);
    EXPECT_EQ(trace.numServers(), 32u);
}

TEST(ConfigIoTest, RejectsUnknownProfile)
{
    std::stringstream ss("[trace]\nprofile = bursty\n");
    sim::Config ini = sim::Config::parse(ss);
    EXPECT_THROW(core::traceRequestFromIni(ini), Error);
}

TEST(ConfigIoTest, WarnsOnUnknownKeysAndSections)
{
    // A typo (`thread`, missing the s) used to be silently ignored.
    // The retired `threads` and `min_servers_per_thread` keys of older
    // configs still load, with a warning naming each key.
    std::stringstream ss(
        "[perf]\nthread = 8\nthreads = 4\nmin_servers_per_thread = 64\n"
        "[typo_section]\nx = 1\n");
    sim::Config ini = sim::Config::parse(ss);

    std::ostringstream captured;
    Logger::instance().setStream(captured);
    core::H2PConfig cfg = core::configFromIni(ini);
    Logger::instance().setStream(std::cerr);

    std::string log = captured.str();
    EXPECT_NE(log.find("unknown key [perf] thread "),
              std::string::npos);
    EXPECT_NE(log.find("unknown key [perf] threads "),
              std::string::npos);
    EXPECT_NE(log.find("unknown key [perf] min_servers_per_thread "),
              std::string::npos);
    EXPECT_NE(log.find("unknown section [typo_section]"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(cfg.perf.optimizer_cache_quantum,
                     core::PerfParams{}.optimizer_cache_quantum);
}

TEST(ConfigIoTest, CleanConfigDoesNotWarn)
{
    std::stringstream ss(
        "[datacenter]\nnum_servers = 40\n[perf]\n"
        "optimizer_cache_quantum = 0.002\n");
    sim::Config ini = sim::Config::parse(ss);
    std::ostringstream captured;
    Logger::instance().setStream(captured);
    core::configFromIni(ini);
    Logger::instance().setStream(std::cerr);
    EXPECT_EQ(captured.str(), "");
}

TEST(ConfigIoTest, ShippedConfigsLoadWithoutWarnings)
{
    // Guards the one field list: a key dropped from it would warn here.
    size_t loaded = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(H2P_SOURCE_DIR) + "/examples/configs")) {
        if (entry.path().extension() != ".ini")
            continue;
        sim::Config ini = sim::Config::load(entry.path().string());
        std::ostringstream captured;
        Logger::instance().setStream(captured);
        core::configFromIni(ini);
        core::traceRequestFromIni(ini);
        Logger::instance().setStream(std::cerr);
        EXPECT_EQ(captured.str(), "") << entry.path();
        ++loaded;
    }
    EXPECT_GE(loaded, 3u);
}

TEST(ConfigIoTest, RejectsNegativeCounts)
{
    // A cast used to wrap these to 2^64 - n: -1 servers hung, -3 flow
    // points threw std::length_error, and -1 servers per circulation
    // silently ran one big loop.
    const std::vector<std::pair<std::string, std::string>> keys = {
        {"datacenter", "num_servers"},
        {"datacenter", "servers_per_circulation"},
        {"lookup", "flow_points"},
        {"safe_mode", "hold_steps"},
    };
    for (const auto &[section, key] : keys) {
        std::stringstream ss("[" + section + "]\n" + key + " = -3\n");
        sim::Config ini = sim::Config::parse(ss);
        try {
            core::configFromIni(ini);
            ADD_FAILURE() << key << " = -3 was accepted";
        } catch (const Error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("[" + section + "] " + key),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("-3"), std::string::npos) << msg;
        }
    }
    std::stringstream ss("[trace]\nservers = -1\n");
    EXPECT_THROW(core::traceRequestFromIni(sim::Config::parse(ss)),
                 Error);
}

/**
 * H2PConfig seen through its one field list, each key named
 * "section.key", for test::forEachFieldChange.
 */
struct ConfigFields
{
    core::H2PConfig config;

    template <typename V>
    void visit(V &v)
    {
        auto named = [&v](const char *s, const char *k, auto &x) {
            v((std::string(s) + "." + k).c_str(), x);
        };
        core::visitConfig(config, named);
    }
};

/** The INI spelling of a visited value. */
template <typename T>
std::string
iniValue(const T &x)
{
    std::ostringstream out;
    out << std::setprecision(17) << x;
    return out.str();
}

TEST(ConfigIoTest, DigestCoversEveryKeyButObs)
{
    const sim::Config base;
    const uint64_t digest = core::configDigest(core::configFromIni(base));
    EXPECT_EQ(core::configDigest(core::H2PConfig{}), digest);

    // Every key the field list names, changed one at a time: outside
    // [obs] the digest moves, and the INI key reads back the change.
    std::set<std::string> keys;
    test::forEachFieldChange(ConfigFields{}, [&](const ConfigFields &m,
                                                 const std::string &key) {
        EXPECT_TRUE(keys.insert(key).second) << key << " named twice";
        const uint64_t changed = core::configDigest(m.config);
        const size_t dot = key.find('.');
        const std::string section = key.substr(0, dot);
        if (section == "obs") {
            EXPECT_EQ(changed, digest) << key;
            return;
        }
        EXPECT_NE(changed, digest) << key;
        std::string value;
        auto read = [&](const char *s, const char *k, const auto &x) {
            if (std::string(s) + "." + k == key)
                value = iniValue(x);
        };
        core::visitConfig(const_cast<core::H2PConfig &>(m.config), read);
        sim::Config ini = base;
        ini.set(section, key.substr(dot + 1), value);
        EXPECT_EQ(core::configDigest(core::configFromIni(ini)), changed)
            << key << " = " << value;
    });
    // Model parameters that were once settable only from code.
    for (const char *key :
         {"power.scale", "power.shift", "power.offset",
          "thermal.base_resistance_kpw", "thermal.conv_scale",
          "thermal.flow_exponent", "thermal.leak_ref_c", "teg.pfit_a",
          "teg.pfit_b", "teg.pfit_c", "teg.reference_flow_lph",
          "pump.rated_flow_lph", "pump.rated_power_w", "pump.idle_power_w",
          "pump.max_flow_lph", "plant.tower_fan_power_per_watt"})
        EXPECT_EQ(keys.count(key), 1u) << key;

    // [trace] is digested separately, by the trace's own fingerprint.
    sim::Config trace = base;
    trace.set("trace", "seed", "9");
    EXPECT_EQ(core::configDigest(core::configFromIni(trace)), digest);

    // Scripted faults have no INI key but are digested.
    core::H2PConfig scripted;
    scripted.faults.scripted.push_back(
        {300.0, fault::FaultKind::PumpDegraded, 0, 0, 0.4, 0.0});
    EXPECT_NE(core::configDigest(scripted), digest);
}

TEST(ConfigIoTest, ObsSectionBinds)
{
    std::stringstream ss(
        "[obs]\nenabled = true\njsonl_path = /tmp/t.jsonl\n"
        "csv_path = /tmp/t.csv\nprint_summary = 1\n"
        "max_events = 128\n");
    sim::Config ini = sim::Config::parse(ss);
    core::H2PConfig cfg = core::configFromIni(ini);
    EXPECT_TRUE(cfg.obs.enabled);
    EXPECT_EQ(cfg.obs.jsonl_path, "/tmp/t.jsonl");
    EXPECT_EQ(cfg.obs.csv_path, "/tmp/t.csv");
    EXPECT_TRUE(cfg.obs.print_summary);
    EXPECT_EQ(cfg.obs.max_events, 128u);
}

TEST(ConfigIoTest, ObsDefaultsOff)
{
    std::stringstream ss("[datacenter]\nnum_servers = 40\n");
    sim::Config ini = sim::Config::parse(ss);
    core::H2PConfig cfg = core::configFromIni(ini);
    EXPECT_FALSE(cfg.obs.enabled);
    EXPECT_TRUE(cfg.obs.jsonl_path.empty());
}

TEST(ConfigIoTest, ConfiguredSystemRuns)
{
    std::stringstream ss(
        "[datacenter]\nnum_servers = 40\n"
        "servers_per_circulation = 20\n"
        "[trace]\nprofile = common\nservers = 40\n");
    sim::Config ini = sim::Config::parse(ss);
    core::H2PSystem sys(core::configFromIni(ini));
    auto trace = core::makeTrace(core::traceRequestFromIni(ini));
    auto r = sys.run(trace, sched::Policy::TegLoadBalance);
    EXPECT_GT(r.summary.avg_teg_w, 2.0);
}

TEST(ConfigIoTest, RejectsQuantumFinerThanDecisionTable)
{
    // 1e-300 parses as a finite number, but llround(U / 1e-300)
    // overflows and would plan every decision at U = 0; building the
    // system must refuse it instead.
    std::stringstream ss("[datacenter]\nnum_servers = 40\n"
                         "[perf]\noptimizer_cache_quantum = 1e-300\n");
    sim::Config ini = sim::Config::parse(ss);
    core::H2PConfig cfg = core::configFromIni(ini);
    EXPECT_EQ(cfg.perf.optimizer_cache_quantum, 1e-300);
    EXPECT_THROW(core::H2PSystem{cfg}, Error);
}

TEST(ConfigIoTest, RejectsWidenedTsafeAtOrBelowColdSource)
{
    // Safe mode's WidenMargin plans at T_safe - margin = 19 C, below
    // the 20 C cold source: the system refuses to build rather than
    // fail at its first widened step. With safe mode off only T_safe
    // itself is planned at, and it is above the cold source.
    std::stringstream ss("[datacenter]\nnum_servers = 40\n"
                         "cold_source_c = 20\n"
                         "[optimizer]\nt_safe_c = 25\n"
                         "[safe_mode]\nenabled = 1\nmargin_c = 6\n");
    core::H2PConfig cfg = core::configFromIni(sim::Config::parse(ss));
    EXPECT_THROW(core::H2PSystem{cfg}, Error);
    cfg.safe_mode.enabled = false;
    EXPECT_NO_THROW(core::H2PSystem{cfg});
}

} // namespace
} // namespace h2p
