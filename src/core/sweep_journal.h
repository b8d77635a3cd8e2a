/**
 * @file
 * Crash-safe sweep journal: an append-only file of sealed records
 * (util::sealRecord, the envelope checkpoints use too).
 *
 * A journaled sweep writes one manifest record (grid size + the
 * grid's component digests) when it starts, then one record per
 * *finished* point — completed with its full bit-exact summary, or
 * quarantined with its classified failure — each flushed and fsync'd
 * before the point's result is delivered downstream. After a crash
 * (including SIGKILL) SweepEngine::resume() loads the journal,
 * restores the finished points verbatim and computes only the rest,
 * so the resumed sweep's output is byte-identical to an uninterrupted
 * one.
 *
 * Durability model: appends cannot use temp+rename (that would
 * rewrite the whole file per point), so each record is a single
 * write + fflush + fsync. A crash can therefore leave one torn record
 * at the end: a record that runs past the end of the file, or a final
 * record that fails its checksum. load() drops it and reports where
 * the intact prefix ends; openAppend() cuts the file there before
 * the first new record. Any other magic, version or checksum failure
 * is real damage and raises h2p::Error naming the record and its byte
 * offset. Every payload is a util::Archive visit — a point record is
 * SweepPointResult::visit — so doubles restore bit-exactly by
 * construction.
 */

#ifndef H2P_CORE_SWEEP_JOURNAL_H_
#define H2P_CORE_SWEEP_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/sweep_types.h"
#include "util/bytes.h"

namespace h2p {
namespace core {

/**
 * Writer/reader of the sweep journal file. Writer instances own a
 * FILE handle; move-only. All methods throw h2p::Error on I/O
 * failure.
 */
class SweepJournal
{
  public:
    /**
     * Per-input digests of a sweep grid, stored in the manifest so a
     * resume against the wrong inputs can say *which* of them
     * diverged.
     */
    struct GridFingerprints
    {
        /** Grid shape: size, point labels and policies. */
        uint64_t shape = 0;
        /** core::configDigest of every point. */
        uint64_t config = 0;
        /** Driving traces (workload::UtilizationTrace fingerprints). */
        uint64_t trace = 0;
        /** Per-point supervision overrides (deadline, step budget). */
        uint64_t guard = 0;
    };

    /** Journal contents as loaded from disk. */
    struct Loaded
    {
        /** Grid size recorded in the manifest. */
        size_t num_points = 0;
        /** Component digests recorded in the manifest. */
        GridFingerprints fingerprints;
        /** Finished points by grid index (duplicates: last wins). */
        std::map<size_t, SweepPointResult> records;
        /** Byte offset where the intact prefix ends (a torn record
         * starts here; == file size when there is none). */
        size_t intact_bytes = 0;
    };

    SweepJournal(SweepJournal &&other) noexcept;
    SweepJournal &operator=(SweepJournal &&other) noexcept;
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;
    ~SweepJournal();

    /**
     * Start a fresh journal at @p path (truncating any previous one)
     * and durably write its manifest record.
     */
    static SweepJournal create(const std::string &path, size_t num_points,
                               const GridFingerprints &fingerprints);

    /**
     * Re-open a load()ed journal for appending (resume): durably cut
     * it to @p intact_bytes (Loaded::intact_bytes) first, so a torn
     * tail never prefixes the next record.
     */
    static SweepJournal openAppend(const std::string &path,
                                   size_t intact_bytes);

    /** Durably append one finished (not Skipped) point's
     * SweepPointResult::visit record (write+flush+fsync). */
    void append(const SweepPointResult &point);

    /** Flush and close the handle early (the destructor also does). */
    void close();

    /**
     * Read a journal written by create()/append(), dropping a torn
     * tail (see the file comment); any other damage, a missing
     * manifest or a journal in an older format raises h2p::Error.
     */
    static Loaded load(const std::string &path);

    /** True when @p path exists and is readable. */
    static bool exists(const std::string &path);

    /**
     * Cheap deterministic digests of a sweep grid, embedded in the
     * manifest so resume() rejects a journal from a different sweep.
     * They hash the grid size and, per point, the label, policy,
     * trace fingerprint, supervision overrides and
     * core::configDigest (every INI key outside [obs], plus the
     * scripted faults).
     */
    static GridFingerprints
    gridFingerprints(const std::vector<SweepPoint> &grid);

    /**
     * Which sweep inputs (grid shape, configuration, traces,
     * supervision overrides) differ between the @p journal and
     * @p grid digests, as a human-readable list; empty when none do.
     */
    static std::string describeMismatch(const GridFingerprints &journal,
                                        const GridFingerprints &grid);

  private:
    SweepJournal() = default;

    /** Write @p bytes and make them durable (write+flush+fsync). */
    void writeDurably(const std::string &bytes);

    std::FILE *file_ = nullptr;
    std::string path_;
};

} // namespace core
} // namespace h2p

#endif // H2P_CORE_SWEEP_JOURNAL_H_
