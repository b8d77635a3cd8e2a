/**
 * @file
 * Crash-safe sweep journal tests: bit-exact record round trips,
 * resume-skips-completed-work, byte-identical delivery after an
 * interrupted sweep, torn-tail tolerance (also across a second
 * resume), corruption and mismatch rejection, every-bit-flip and
 * every-truncation mutation checks, and quarantined-record
 * restoration.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/h2p_system.h"
#include "core/sweep_engine.h"
#include "core/sweep_journal.h"
#include "tests/support/fields.h"
#include "tests/support/mutate.h"
#include "util/bytes.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace {

core::H2PConfig
smallConfig()
{
    core::H2PConfig cfg;
    cfg.datacenter.num_servers = 40;
    cfg.datacenter.servers_per_circulation = 20;
    return cfg;
}

workload::UtilizationTrace
makeTrace(uint64_t seed = 21, size_t servers = 40,
          double duration_s = 1.0 * 3600.0)
{
    workload::TraceGenerator gen(seed);
    return gen.generate(workload::TraceGenParams::forProfile(
                            workload::TraceProfile::Drastic),
                        servers, duration_s);
}

std::vector<core::SweepPoint>
makeGrid(const workload::UtilizationTrace &trace, size_t n)
{
    std::vector<core::SweepPoint> grid;
    for (size_t i = 0; i < n; ++i) {
        core::SweepPoint pt;
        pt.config = smallConfig();
        pt.config.optimizer.t_safe_c = 58.0 + 2.0 * double(i);
        pt.trace = &trace;
        pt.policy = i % 2 == 0 ? sched::Policy::TegOriginal
                               : sched::Policy::TegLoadBalance;
        pt.label = "pt" + std::to_string(i);
        grid.push_back(pt);
    }
    return grid;
}

/** RAII temp-file path cleaned up on scope exit. */
struct TempPath
{
    explicit TempPath(const std::string &name) : path(name) {}
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Arbitrary, distinct manifest digests for journal-level tests. */
core::SweepJournal::GridFingerprints
someFingerprints()
{
    core::SweepJournal::GridFingerprints fp;
    fp.shape = 0xabcdef0011223344u;
    fp.config = 0x0123456789abcdefu;
    fp.trace = 0xfeedfacecafebeefu;
    fp.guard = 0x1u;
    return fp;
}

/** One digest line per delivered point, for byte-identity checks. */
std::string
renderDelivered(const std::vector<core::SweepPointResult> &delivered)
{
    std::ostringstream os;
    os.precision(17);
    for (const core::SweepPointResult &r : delivered) {
        os << r.index << ',' << r.label << ','
           << core::toString(r.status) << ',' << r.summary.pre << ','
           << r.summary.avg_teg_w << ',' << r.summary.teg_energy_kwh
           << ',' << toString(r.failure.kind) << ','
           << r.failure.stage << '\n';
    }
    return os.str();
}

// ------------------------------------------------ record round trip

TEST(JournalTest, RecordsRoundTripBitExactly)
{
    TempPath jp("journal_test_roundtrip.journal");

    core::SweepPointResult done;
    done.index = 3;
    done.status = core::PointStatus::Completed;
    done.attempts = 2;
    done.label = "t_safe=61, \"quoted\"\nline";
    done.policy = sched::Policy::TegLoadBalance;
    done.duration_s = 0.12345678901234567;
    done.summary.policy = sched::Policy::TegLoadBalance;
    done.summary.avg_teg_w = 1.0 / 3.0;
    done.summary.peak_teg_w = 2.0000000000000004;
    done.summary.avg_cpu_w = 77.7;
    done.summary.pre = 0.031415926535897931;
    done.summary.teg_energy_kwh = 1e-300;
    done.summary.cpu_energy_kwh = 12.0;
    done.summary.plant_energy_kwh = 0.0;
    done.summary.pump_energy_kwh = -0.0;
    done.summary.safe_fraction = 0.99999999999999989;
    done.summary.avg_t_in_c = 45.100000000000001;
    done.summary.fault_events = 7;
    done.summary.throttle_events = 2;
    done.summary.throttled_work_server_hours = 0.25;
    done.summary.teg_energy_lost_kwh = 1e-17;
    done.summary.safe_mode_steps = 11;
    done.summary.max_faulted_servers = 4;
    done.summary.circulation_safe_fraction = {1.0, 1.0 / 7.0, 0.5};

    core::SweepPointResult bad;
    bad.index = 5;
    bad.status = core::PointStatus::Quarantined;
    bad.attempts = 3;
    bad.label = "diverging";
    bad.policy = sched::Policy::TegOriginal;
    bad.duration_s = 0.001;
    bad.failure.kind = FailureKind::NumericDivergence;
    bad.failure.step = 17;
    bad.failure.stage = "evaluate";
    bad.failure.message = "teg=inf W\ttab and \"quotes\"";

    {
        auto j = core::SweepJournal::create(jp.path, 8, someFingerprints());
        j.append(done);
        j.append(bad);
        j.close();
    }

    auto loaded = core::SweepJournal::load(jp.path);
    EXPECT_EQ(loaded.num_points, 8u);
    EXPECT_EQ(loaded.fingerprints.shape, someFingerprints().shape);
    ASSERT_EQ(loaded.records.size(), 2u);

    // Every field of both records, bit for bit (-0 and 1e-300
    // included).
    EXPECT_EQ(test::firstDifferingField(loaded.records.at(3), done), "");
    EXPECT_EQ(test::firstDifferingField(loaded.records.at(5), bad), "");
    EXPECT_EQ(loaded.records.at(5).status,
              core::PointStatus::Quarantined);
}

// ---------------------------------------------------- pinned layout

/** The IEEE-754 bits of @p x, as the journal stores them. */
uint64_t
bitsOf(double x)
{
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

/**
 * A test-local decoder of one point record: walks the sealed record at
 * @p at field by field with a raw reader and checks every field
 * against @p p. Returns the offset of the next record.
 */
size_t
walkPointRecord(const std::string &file, size_t at,
                const core::SweepPointResult &p)
{
    // Envelope: "H2PJPNT1" | u32 version 2 | u64 length | payload |
    // u64 FNV-1a of the payload.
    EXPECT_EQ(file.substr(at, 8), "H2PJPNT1");
    util::ByteReader head(file, at + 8, at + 20);
    EXPECT_EQ(head.u32(), 2u);
    const uint64_t len = head.u64();
    const size_t begin = at + 20;
    const size_t end = begin + static_cast<size_t>(len);

    util::ByteReader r(file, begin, end);
    EXPECT_EQ(r.u64(), p.index);
    EXPECT_EQ(r.u32(), static_cast<uint32_t>(p.status));
    EXPECT_EQ(r.u64(), p.attempts);
    EXPECT_EQ(r.str(), p.label);
    EXPECT_EQ(r.u32(), static_cast<uint32_t>(p.policy));
    EXPECT_EQ(r.u64(), bitsOf(p.duration_s));
    if (p.status == core::PointStatus::Completed) {
        const core::RunSummary &s = p.summary;
        EXPECT_EQ(r.u32(), static_cast<uint32_t>(s.policy));
        EXPECT_EQ(r.u64(), bitsOf(s.avg_teg_w));
        EXPECT_EQ(r.u64(), bitsOf(s.peak_teg_w));
        EXPECT_EQ(r.u64(), bitsOf(s.avg_cpu_w));
        EXPECT_EQ(r.u64(), bitsOf(s.pre));
        EXPECT_EQ(r.u64(), bitsOf(s.teg_energy_kwh));
        EXPECT_EQ(r.u64(), bitsOf(s.cpu_energy_kwh));
        EXPECT_EQ(r.u64(), bitsOf(s.plant_energy_kwh));
        EXPECT_EQ(r.u64(), bitsOf(s.pump_energy_kwh));
        EXPECT_EQ(r.u64(), bitsOf(s.safe_fraction));
        EXPECT_EQ(r.u64(), bitsOf(s.avg_t_in_c));
        EXPECT_EQ(r.u64(), s.fault_events);
        EXPECT_EQ(r.u64(), s.throttle_events);
        EXPECT_EQ(r.u64(), bitsOf(s.throttled_work_server_hours));
        EXPECT_EQ(r.u64(), bitsOf(s.teg_energy_lost_kwh));
        EXPECT_EQ(r.u64(), s.safe_mode_steps);
        EXPECT_EQ(r.u64(), s.max_faulted_servers);
        const uint64_t n = r.u64();
        EXPECT_EQ(n, s.circulation_safe_fraction.size());
        for (uint64_t c = 0; c < n && c < s.circulation_safe_fraction.size();
             ++c)
            EXPECT_EQ(r.u64(), bitsOf(s.circulation_safe_fraction[c]));
    } else {
        const RunFailure &f = p.failure;
        EXPECT_EQ(r.u32(), static_cast<uint32_t>(f.kind));
        EXPECT_EQ(r.str(), f.message);
        EXPECT_EQ(r.u64(), f.step);
        EXPECT_EQ(r.str(), f.stage);
    }
    EXPECT_TRUE(r.exhausted());

    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = begin; i < end; ++i) {
        h ^= static_cast<unsigned char>(file[i]);
        h *= 0x00000100000001b3ull;
    }
    util::ByteReader foot(file, end, end + 8);
    EXPECT_EQ(foot.u64(), h);
    return end + 8;
}

TEST(JournalTest, PointRecordLayoutIsPinnedFieldByField)
{
    TempPath jp("journal_test_layout.journal");
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 2);
    grid[1].step_budget = 2; // quarantined on its only attempt

    core::SweepOptions options;
    options.workers = 1;
    options.keep_recorders = false;
    options.max_attempts = 1;
    options.journal_path = jp.path;
    const core::SweepResult result = core::SweepEngine(options).run(grid);
    ASSERT_EQ(result.points[0].status, core::PointStatus::Completed);
    ASSERT_EQ(result.points[1].status, core::PointStatus::Quarantined);
    EXPECT_EQ(result.points[1].failure.kind, FailureKind::Timeout);

    const std::string file = readFile(jp.path);
    // Manifest: "H2PJMAN1" | u32 2 | u64 40 | point count, shape,
    // config, trace and guard digests (u64 each) | u64 FNV-1a.
    ASSERT_GT(file.size(), 68u);
    EXPECT_EQ(file.substr(0, 8), "H2PJMAN1");
    util::ByteReader manifest(file, 8, 68);
    EXPECT_EQ(manifest.u32(), 2u);
    EXPECT_EQ(manifest.u64(), 40u);
    EXPECT_EQ(manifest.u64(), grid.size());
    const core::SweepJournal::GridFingerprints fp =
        core::SweepJournal::gridFingerprints(grid);
    EXPECT_EQ(manifest.u64(), fp.shape);
    EXPECT_EQ(manifest.u64(), fp.config);
    EXPECT_EQ(manifest.u64(), fp.trace);
    EXPECT_EQ(manifest.u64(), fp.guard);

    size_t at = 68;
    for (const core::SweepPointResult &p : result.points) {
        SCOPED_TRACE(p.label);
        ASSERT_LT(at, file.size());
        at = walkPointRecord(file, at, p);
    }
    EXPECT_EQ(at, file.size());
}

// --------------------------------------------------- load rejection

TEST(JournalTest, LoadToleratesTornTailOnly)
{
    TempPath jp("journal_test_torn.journal");
    size_t record_end[2];
    {
        auto j = core::SweepJournal::create(jp.path, 4, someFingerprints());
        core::SweepPointResult rec;
        rec.index = 0;
        rec.status = core::PointStatus::Completed;
        rec.attempts = 1;
        j.append(rec);
        record_end[0] = readFile(jp.path).size();
        rec.index = 1;
        j.append(rec);
        record_end[1] = readFile(jp.path).size();
        j.close();
    }
    const std::string intact = readFile(jp.path);
    ASSERT_EQ(intact.size(), record_end[1]);

    // Torn final record (SIGKILL mid-append): dropped silently, the
    // rest of the journal survives and the intact prefix is reported.
    writeFile(jp.path, intact.substr(0, intact.size() - 25));
    auto loaded = core::SweepJournal::load(jp.path);
    EXPECT_EQ(loaded.num_points, 4u);
    EXPECT_EQ(loaded.records.size(), 1u);
    EXPECT_TRUE(loaded.records.count(0));
    EXPECT_EQ(loaded.intact_bytes, record_end[0]);

    // The same damage in the *middle* is corruption, not a torn tail.
    std::string corrupt = intact.substr(0, record_end[0] - 25) +
                          intact.substr(record_end[0]);
    writeFile(jp.path, corrupt);
    EXPECT_THROW(core::SweepJournal::load(jp.path), Error);
}

TEST(JournalTest, LoadRejectsMissingOrBrokenManifest)
{
    TempPath jp("journal_test_manifest.journal");
    size_t manifest_end = 0;
    {
        auto j = core::SweepJournal::create(jp.path, 1, someFingerprints());
        manifest_end = readFile(jp.path).size();
        core::SweepPointResult rec;
        rec.status = core::PointStatus::Completed;
        j.append(rec);
    }
    const std::string intact = readFile(jp.path);

    writeFile(jp.path, "");
    EXPECT_THROW(core::SweepJournal::load(jp.path), Error);

    // A point record with no manifest before it.
    writeFile(jp.path, intact.substr(manifest_end));
    EXPECT_THROW(core::SweepJournal::load(jp.path), Error);

    // A manifest of an unknown version (the u32 after the magic).
    std::string future = intact.substr(0, manifest_end);
    future[8] = 7;
    writeFile(jp.path, future);
    EXPECT_THROW(core::SweepJournal::load(jp.path), Error);

    // A JSONL journal from an older build fails the magic check and
    // says why.
    writeFile(jp.path, "{\"type\":\"manifest\",\"version\":1,"
                       "\"points\":1,\"fingerprint\":"
                       "\"0x0000000000000001\"}\n");
    try {
        core::SweepJournal::load(jp.path);
        ADD_FAILURE() << "a JSONL journal was accepted";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("JSONL"), std::string::npos)
            << e.what();
    }

    EXPECT_THROW(core::SweepJournal::load("no_such_journal.journal"),
                 Error);
}

// ------------------------------------------------- mutation checks

TEST(JournalTest, EveryBitFlipAndTruncationLoadsAnIntactSubsetOrThrows)
{
    TempPath jp("journal_test_mutation.journal");
    std::vector<core::SweepPointResult> written(3);
    written[0].index = 0;
    written[0].status = core::PointStatus::Completed;
    written[0].attempts = 1;
    written[0].label = "t_safe=60";
    written[0].duration_s = 0.5;
    written[0].summary.avg_teg_w = 1.5;
    written[0].summary.pre = 0.0273;
    written[0].summary.fault_events = 3;
    written[0].summary.circulation_safe_fraction = {1.0, 0.75};
    written[1].index = 1;
    written[1].status = core::PointStatus::Quarantined;
    written[1].attempts = 2;
    written[1].label = "t_safe=62";
    written[1].policy = sched::Policy::TegLoadBalance;
    written[1].failure.kind = FailureKind::Timeout;
    written[1].failure.step = 12;
    written[1].failure.stage = "deadline";
    written[1].failure.message = "deadline of 1 s exceeded";
    written[2].index = 2;
    written[2].status = core::PointStatus::Completed;
    written[2].attempts = 1;
    written[2].label = "t_safe=64";
    written[2].policy = sched::Policy::TegLoadBalance;
    written[2].summary.policy = sched::Policy::TegLoadBalance;
    written[2].summary.avg_teg_w = 1.0 / 3.0;
    written[2].summary.safe_fraction = 0.99;
    written[2].summary.circulation_safe_fraction = {0.5};
    {
        auto j = core::SweepJournal::create(jp.path, 3, someFingerprints());
        for (const core::SweepPointResult &rec : written)
            j.append(rec);
    }
    const std::string intact = readFile(jp.path);

    // Each mutant either throws a typed Error or loads a subset of
    // what was written, every value bit-identical.
    size_t thrown = 0, loaded_some = 0;
    auto check = [&](const std::string &mutant, const std::string &what) {
        writeFile(jp.path, mutant);
        core::SweepJournal::Loaded loaded;
        try {
            loaded = core::SweepJournal::load(jp.path);
        } catch (const Error &) {
            ++thrown;
            return;
        }
        ++loaded_some;
        EXPECT_EQ(loaded.num_points, 3u) << what;
        EXPECT_EQ(loaded.fingerprints.shape, someFingerprints().shape)
            << what;
        EXPECT_EQ(loaded.fingerprints.config, someFingerprints().config)
            << what;
        EXPECT_EQ(loaded.fingerprints.trace, someFingerprints().trace)
            << what;
        EXPECT_EQ(loaded.fingerprints.guard, someFingerprints().guard)
            << what;
        for (const auto &entry : loaded.records) {
            ASSERT_LT(entry.first, written.size()) << what;
            EXPECT_EQ(test::firstDifferingField(entry.second,
                                                written[entry.first]),
                      "")
                << what << " changed point " << entry.first;
        }
    };
    test::forEachBitFlip(intact, check);
    test::forEachTruncation(intact, check);
    EXPECT_GT(thrown, 0u);
    EXPECT_GT(loaded_some, 0u);
}

// ------------------------------------------------- sweep integration

TEST(JournalTest, ResumeSkipsCompletedPointsAndMatchesByteForByte)
{
    TempPath jp("journal_test_resume.journal");
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 5);
    grid[3].step_budget = 2; // one quarantined point in the mix

    util::CancelToken cancel;
    core::SweepOptions options;
    options.keep_recorders = false;
    options.max_attempts = 1;
    options.journal_path = jp.path;
    options.cancel = &cancel;

    // Uninterrupted reference sweep.
    std::vector<core::SweepPointResult> ref_delivered;
    core::SweepEngine engine(options);
    core::SweepResult reference =
        engine.run(grid, [&](const core::SweepPointResult &r) {
            ref_delivered.push_back(r);
        });
    const std::string ref_bytes = renderDelivered(ref_delivered);
    EXPECT_EQ(reference.quarantined, 1u);

    // Interrupted sweep: cancel after two delivered points. The
    // journal now holds a prefix of the work.
    std::vector<core::SweepPointResult> partial;
    core::SweepResult interrupted =
        engine.run(grid, [&](const core::SweepPointResult &r) {
            partial.push_back(r);
            if (partial.size() == 2)
                cancel.requestCancel();
        });
    EXPECT_TRUE(interrupted.cancelled);
    EXPECT_LT(interrupted.runs_completed, grid.size());
    cancel.reset();

    // Resume: completed work restores from the journal, the rest
    // computes, and the delivered stream is byte-identical to the
    // uninterrupted sweep.
    std::vector<core::SweepPointResult> resumed_delivered;
    core::SweepResult resumed =
        engine.resume(grid, [&](const core::SweepPointResult &r) {
            resumed_delivered.push_back(r);
        });
    EXPECT_FALSE(resumed.cancelled);
    // The journal holds every point the interrupted sweep finished —
    // completed or quarantined — and not only the two delivered
    // before the cancel: on a multi-core host the other workers
    // finish (and journal) their in-flight points first.
    const size_t journaled =
        interrupted.runs_completed + interrupted.quarantined;
    EXPECT_GE(journaled, 2u);
    EXPECT_EQ(resumed.points_restored, journaled);
    EXPECT_EQ(resumed.quarantined, 1u);
    EXPECT_EQ(renderDelivered(resumed_delivered), ref_bytes);

    // Restored points carry bit-exact summaries but no recorder. The
    // two delivered before the cancel are always among them.
    ASSERT_EQ(resumed_delivered.size(), ref_delivered.size());
    EXPECT_TRUE(resumed_delivered[0].restored);
    EXPECT_TRUE(resumed_delivered[1].restored);
    size_t restored = 0;
    for (size_t i = 0; i < resumed_delivered.size(); ++i) {
        if (!resumed_delivered[i].restored)
            continue;
        ++restored;
        EXPECT_EQ(resumed_delivered[i].recorder, nullptr);
        EXPECT_EQ(test::firstDifferingField(resumed_delivered[i].summary,
                                            ref_delivered[i].summary),
                  "");
    }
    EXPECT_EQ(restored, journaled);

    // A second resume over the now-complete journal restores
    // everything and recomputes nothing.
    std::vector<core::SweepPointResult> again_delivered;
    core::SweepResult again =
        engine.resume(grid, [&](const core::SweepPointResult &r) {
            again_delivered.push_back(r);
        });
    EXPECT_EQ(again.points_restored, grid.size());
    EXPECT_EQ(renderDelivered(again_delivered), ref_bytes);
}

TEST(JournalTest, ResumeAfterTornTailSurvivesASecondResume)
{
    TempPath jp("journal_test_torn_resume.journal");
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 4);

    util::CancelToken cancel;
    core::SweepOptions options;
    options.keep_recorders = false;
    options.journal_path = jp.path;
    options.cancel = &cancel;
    // One worker: a cancel from the callback lands before the next
    // point starts, so the journal ends exactly at a record boundary.
    options.workers = 1;
    core::SweepEngine engine(options);

    std::vector<core::SweepPointResult> delivered;
    auto collect = [&](const core::SweepPointResult &r) {
        delivered.push_back(r);
    };
    // Re-arms the token, then trips it once n points are delivered.
    auto stopAfter = [&](size_t n) {
        cancel.reset();
        return [&cancel, &delivered, n](const core::SweepPointResult &r) {
            delivered.push_back(r);
            if (delivered.size() == n)
                cancel.requestCancel();
        };
    };
    engine.run(grid, collect);
    const std::string ref_bytes = renderDelivered(delivered);

    // Journal ends of two and of three finished points.
    delivered.clear();
    engine.run(grid, stopAfter(2));
    const size_t two_points = readFile(jp.path).size();
    delivered.clear();
    engine.resume(grid, stopAfter(3));
    const std::string three = readFile(jp.path);
    ASSERT_GT(three.size(), two_points);

    // SIGKILL mid-append: the third point's record is torn in half.
    writeFile(jp.path, three.substr(0, (two_points + three.size()) / 2));

    // The first resume drops the torn record and appends two new ones.
    cancel.reset();
    delivered.clear();
    core::SweepResult first = engine.resume(grid, collect);
    EXPECT_EQ(first.points_restored, 2u);
    EXPECT_EQ(renderDelivered(delivered), ref_bytes);

    // The second resume finds every point intact.
    delivered.clear();
    core::SweepResult second = engine.resume(grid, collect);
    EXPECT_EQ(second.points_restored, grid.size());
    EXPECT_EQ(renderDelivered(delivered), ref_bytes);
}

TEST(JournalTest, ResumeRestoresQuarantinedRecord)
{
    TempPath jp("journal_test_quarantine.journal");
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 3);
    grid[0].config.datacenter.server.power.scale = 1e308;

    core::SweepOptions options;
    options.keep_recorders = false;
    options.journal_path = jp.path;
    core::SweepEngine engine(options);
    core::SweepResult first = engine.run(grid);
    EXPECT_EQ(first.quarantined, 1u);

    core::SweepResult resumed = engine.resume(grid);
    EXPECT_EQ(resumed.points_restored, 3u);
    EXPECT_EQ(resumed.quarantined, 1u);
    const core::SweepPointResult &bad = resumed.points[0];
    EXPECT_TRUE(bad.restored);
    EXPECT_EQ(bad.status, core::PointStatus::Quarantined);
    EXPECT_EQ(bad.failure.kind, FailureKind::NumericDivergence);
    EXPECT_EQ(bad.failure.step, 0u);
    EXPECT_EQ(bad.failure.stage, "evaluate");
}

TEST(JournalTest, ResumeRefusesAChangedCpuPowerFit)
{
    // Point 0 diverges and is journaled as quarantined. Resuming a grid
    // whose point 0 has the healthy CPU power fit must not serve that
    // stale row: the point's configuration digest covers the fit.
    TempPath jp("journal_test_power_fit.journal");
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 3);
    grid[0].config.datacenter.server.power.scale = 1e308;

    core::SweepOptions options;
    options.keep_recorders = false;
    options.journal_path = jp.path;
    core::SweepEngine engine(options);
    EXPECT_EQ(engine.run(grid).quarantined, 1u);

    EXPECT_THROW(engine.resume(makeGrid(trace, 3)), Error);
}

TEST(JournalTest, ResumeRejectsMismatchedGrid)
{
    TempPath jp("journal_test_mismatch.journal");
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 3);

    core::SweepOptions options;
    options.keep_recorders = false;
    options.journal_path = jp.path;
    core::SweepEngine engine(options);
    engine.run(grid);

    // Different grid size.
    auto bigger = makeGrid(trace, 4);
    EXPECT_THROW(engine.resume(bigger), Error);

    // Same size, different content (fingerprint mismatch).
    auto tweaked = makeGrid(trace, 3);
    tweaked[1].config.optimizer.t_safe_c += 1.0;
    EXPECT_THROW(engine.resume(tweaked), Error);

    // Resume without a journal configured / without a file.
    core::SweepEngine plain;
    EXPECT_THROW(plain.resume(grid), Error);
    core::SweepOptions missing = options;
    missing.journal_path = "never_written.journal";
    core::SweepEngine missing_engine(missing);
    EXPECT_THROW(missing_engine.resume(grid), Error);
}

TEST(JournalTest, MismatchMessageNamesTheDivergedInput)
{
    TempPath jp("journal_test_mismatch_named.journal");
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 3);

    core::SweepOptions options;
    options.keep_recorders = false;
    options.journal_path = jp.path;
    core::SweepEngine engine(options);
    engine.run(grid);

    auto mismatchMessage = [&engine](
                               std::vector<core::SweepPoint> &bad) {
        try {
            engine.resume(bad);
        } catch (const Error &e) {
            return std::string(e.what());
        }
        ADD_FAILURE() << "resume accepted a diverging grid";
        return std::string();
    };

    // Configuration knob tweaked: named, and nothing else blamed.
    auto tweaked = makeGrid(trace, 3);
    tweaked[1].config.optimizer.t_safe_c += 1.0;
    std::string msg = mismatchMessage(tweaked);
    EXPECT_NE(msg.find("configuration"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("traces"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("grid shape"), std::string::npos) << msg;

    // Model and safe-mode keys outside the old headline list are
    // configuration too.
    auto teg = makeGrid(trace, 3);
    teg[2].config.datacenter.server.teg.voc_slope = 0.06;
    msg = mismatchMessage(teg);
    EXPECT_NE(msg.find("configuration"), std::string::npos) << msg;
    auto margin = makeGrid(trace, 3);
    margin[0].config.safe_mode.margin_c += 1.0;
    msg = mismatchMessage(margin);
    EXPECT_NE(msg.find("configuration"), std::string::npos) << msg;

    // Different driving trace: only the traces are blamed.
    auto other_trace = makeTrace(/*seed=*/22);
    auto retraced = makeGrid(other_trace, 3);
    msg = mismatchMessage(retraced);
    EXPECT_NE(msg.find("traces"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("configuration"), std::string::npos) << msg;

    // Same size but different labels: the grid shape is blamed.
    auto relabeled = makeGrid(trace, 3);
    relabeled[2].label = "renamed";
    msg = mismatchMessage(relabeled);
    EXPECT_NE(msg.find("grid shape"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("traces"), std::string::npos) << msg;

    // Per-point supervision override: named as such.
    auto guarded = makeGrid(trace, 3);
    guarded[0].step_budget = 5;
    msg = mismatchMessage(guarded);
    EXPECT_NE(msg.find("supervision overrides"), std::string::npos)
        << msg;
    EXPECT_EQ(msg.find("configuration"), std::string::npos) << msg;

    // Several inputs at once: all of them are listed.
    auto multi = makeGrid(other_trace, 3);
    multi[0].config.optimizer.t_safe_c += 1.0;
    msg = mismatchMessage(multi);
    EXPECT_NE(msg.find("configuration"), std::string::npos) << msg;
    EXPECT_NE(msg.find("traces"), std::string::npos) << msg;
}

TEST(JournalTest, ComponentDigestsRoundTripThroughTheManifest)
{
    TempPath jp("journal_test_components.journal");
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 3);
    const auto fp = core::SweepJournal::gridFingerprints(grid);
    {
        auto journal =
            core::SweepJournal::create(jp.path, grid.size(), fp);
    }
    auto loaded = core::SweepJournal::load(jp.path);
    EXPECT_EQ(loaded.num_points, grid.size());
    EXPECT_EQ(loaded.fingerprints.shape, fp.shape);
    EXPECT_EQ(loaded.fingerprints.config, fp.config);
    EXPECT_EQ(loaded.fingerprints.trace, fp.trace);
    EXPECT_EQ(loaded.fingerprints.guard, fp.guard);
}

TEST(JournalTest, FreshRunTruncatesOldJournal)
{
    TempPath jp("journal_test_truncate.journal");
    auto trace = makeTrace();
    auto grid = makeGrid(trace, 2);

    core::SweepOptions options;
    options.keep_recorders = false;
    options.journal_path = jp.path;
    core::SweepEngine engine(options);
    engine.run(grid);
    auto first = core::SweepJournal::load(jp.path);
    EXPECT_EQ(first.records.size(), 2u);

    // run() (not resume()) starts over: the journal is re-created.
    engine.run(grid);
    auto second = core::SweepJournal::load(jp.path);
    EXPECT_EQ(second.records.size(), 2u);
    EXPECT_EQ(second.num_points, 2u);
}

} // namespace
} // namespace h2p
