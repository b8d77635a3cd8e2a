#include "core/sweep_journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include <unistd.h>

#include "core/config_io.h"
#include "util/error.h"
#include "util/hash.h"

namespace h2p {
namespace core {

namespace {

// Version 1 was line-delimited JSON; version 2 is sealed records.
constexpr char kManifestMagic[8] = {'H', '2', 'P', 'J', 'M', 'A', 'N', '1'};
constexpr char kPointMagic[8] = {'H', '2', 'P', 'J', 'P', 'N', 'T', '1'};
constexpr uint32_t kJournalVersion = 2;

/** The manifest's one field list: grid size, then the digests. */
void
visitManifest(util::Archive &ar, size_t &num_points,
              SweepJournal::GridFingerprints &fp)
{
    ar.size(num_points);
    ar.u64(fp.shape);
    ar.u64(fp.config);
    ar.u64(fp.trace);
    ar.u64(fp.guard);
}

void
syncFile(std::FILE *file, const std::string &path)
{
    expect(std::fflush(file) == 0, "journal `", path,
           "': flush failed: ", std::strerror(errno));
    expect(::fsync(fileno(file)) == 0, "journal `", path,
           "': fsync failed: ", std::strerror(errno));
}

} // namespace

const char *
toString(PointStatus status)
{
    switch (status) {
      case PointStatus::Completed:
        return "completed";
      case PointStatus::Quarantined:
        return "quarantined";
      case PointStatus::Skipped:
        return "skipped";
    }
    return "unknown";
}

SweepJournal::SweepJournal(SweepJournal &&other) noexcept
    : file_(other.file_), path_(std::move(other.path_))
{
    other.file_ = nullptr;
}

SweepJournal &
SweepJournal::operator=(SweepJournal &&other) noexcept
{
    if (this != &other) {
        if (file_ != nullptr)
            std::fclose(file_);
        file_ = other.file_;
        path_ = std::move(other.path_);
        other.file_ = nullptr;
    }
    return *this;
}

SweepJournal::~SweepJournal()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
SweepJournal::writeDurably(const std::string &bytes)
{
    expect(std::fwrite(bytes.data(), 1, bytes.size(), file_) ==
               bytes.size(),
           "journal `", path_, "': write failed: ", std::strerror(errno));
    syncFile(file_, path_);
}

SweepJournal
SweepJournal::create(const std::string &path, size_t num_points,
                     const GridFingerprints &fingerprints)
{
    SweepJournal j;
    j.path_ = path;
    j.file_ = std::fopen(path.c_str(), "wb");
    expect(j.file_ != nullptr, "cannot create sweep journal `", path,
           "': ", std::strerror(errno));
    util::ByteWriter w;
    util::Archive ar(w);
    GridFingerprints fp = fingerprints;
    visitManifest(ar, num_points, fp);
    j.writeDurably(util::sealRecord(kManifestMagic, kJournalVersion,
                                    w.data()));
    return j;
}

SweepJournal
SweepJournal::openAppend(const std::string &path, size_t intact_bytes)
{
    SweepJournal j;
    j.path_ = path;
    j.file_ = std::fopen(path.c_str(), "ab");
    expect(j.file_ != nullptr, "cannot open sweep journal `", path,
           "' for append: ", std::strerror(errno));
    // Appends land at the end of the file, so cut a torn tail first.
    expect(::ftruncate(fileno(j.file_), static_cast<off_t>(intact_bytes)) ==
               0,
           "journal `", path, "': truncate failed: ", std::strerror(errno));
    syncFile(j.file_, path);
    return j;
}

void
SweepJournal::append(const SweepPointResult &point)
{
    H2P_ASSERT(file_ != nullptr, "journal appended after close");
    H2P_ASSERT(point.status != PointStatus::Skipped,
               "skipped points are never journaled");
    // Durable before the result is visible downstream: one fsync per
    // point, the price of resumability.
    writeDurably(util::sealRecord(kPointMagic, kJournalVersion,
                                  util::archiveBytes(point)));
}

void
SweepJournal::close()
{
    if (file_ == nullptr)
        return;
    syncFile(file_, path_);
    std::fclose(file_);
    file_ = nullptr;
}

bool
SweepJournal::exists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    std::fclose(f);
    return true;
}

SweepJournal::Loaded
SweepJournal::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    expect(is.good(), "cannot open sweep journal `", path,
           "' for reading");
    const std::string file((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());

    Loaded loaded;
    size_t at = 0;
    for (size_t n = 0; at < file.size(); ++n) {
        const util::SealedRecord rec =
            util::openRecord(file, at, n == 0 ? kManifestMagic : kPointMagic,
                             kJournalVersion);
        // A crash mid-append tears at most the final record: it runs
        // past the end of the file, or ends there with a bad checksum.
        if (rec.status == util::SealedRecord::Status::Truncated ||
            (rec.status == util::SealedRecord::Status::BadChecksum &&
             rec.next == file.size()))
            break;
        expect(n > 0 || rec.status != util::SealedRecord::Status::BadMagic,
               "`", path, "' does not start with a sweep journal manifest "
               "(bad magic); JSONL journals from older builds cannot be "
               "resumed — start the sweep afresh");
        expect(rec.ok(), "sweep journal `", path, "' record ", n,
               " at byte ", at, " ", rec.describe(kJournalVersion));
        try {
            util::ByteReader r(file, rec.begin, rec.end);
            util::Archive ar(r);
            if (n == 0) {
                visitManifest(ar, loaded.num_points, loaded.fingerprints);
            } else {
                SweepPointResult point;
                point.visit(ar);
                expect(point.index < loaded.num_points, "point index ",
                       point.index, " exceeds the manifest size ",
                       loaded.num_points);
                loaded.records[point.index] = std::move(point);
            }
            expect(r.exhausted(), "trailing bytes in the payload");
        } catch (const Error &e) {
            fatal("sweep journal `", path, "' record ", n, " at byte ", at,
                  ": ", e.what());
        }
        at = rec.next;
    }
    expect(at > 0, "sweep journal `", path,
           "' has no intact manifest record");
    loaded.intact_bytes = at;
    return loaded;
}

SweepJournal::GridFingerprints
SweepJournal::gridFingerprints(const std::vector<SweepPoint> &grid)
{
    util::Fnv1a shape, config, trace, guard;
    shape.size(grid.size());
    for (const SweepPoint &p : grid) {
        shape.str(p.label);
        shape.u64(static_cast<uint64_t>(p.policy));
        trace.u64(p.trace != nullptr ? p.trace->fingerprint() : 0);
        config.u64(configDigest(p.config));
        guard.f64(p.deadline_s);
        guard.size(p.step_budget);
    }
    GridFingerprints fps;
    fps.shape = shape.digest();
    fps.config = config.digest();
    fps.trace = trace.digest();
    fps.guard = guard.digest();
    return fps;
}

std::string
SweepJournal::describeMismatch(const GridFingerprints &journal,
                               const GridFingerprints &grid)
{
    std::vector<std::string> diverged;
    if (journal.shape != grid.shape)
        diverged.push_back("grid shape (size, labels or policies)");
    if (journal.config != grid.config)
        diverged.push_back("configuration (an INI key outside [obs] or "
                           "the scripted faults differ, or the journal "
                           "was written by an older build)");
    if (journal.trace != grid.trace)
        diverged.push_back("traces");
    if (journal.guard != grid.guard)
        diverged.push_back("supervision overrides (per-point deadline "
                           "or step budget)");
    std::string msg;
    for (size_t i = 0; i < diverged.size(); ++i) {
        if (i > 0)
            msg += i + 1 == diverged.size() ? " and " : ", ";
        msg += diverged[i];
    }
    return msg;
}

} // namespace core
} // namespace h2p
