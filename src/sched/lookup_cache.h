/**
 * @file
 * Process-wide cache of sampled LookupSpace tables and of the
 * cooling-decision tables over them.
 *
 * Building a LookupSpace samples the calibrated server model onto a
 * ~14k-point grid (~1 ms). Every H2PSystem used to build its own, so
 * a cooling-setting sweep over N configurations paid that cost N
 * times even when every point simulated the *same* server hardware
 * (only T_safe, the trace seed or the policy differed). The table is
 * a pure function of the server model and the grid extents, and it is
 * immutable once built — so identical requests can share one
 * instance.
 *
 * The cache keys on an FNV-1a fingerprint of every parameter the
 * sampled table depends on (CPU power model, CPU thermal model, grid
 * extents; the TEG plays no part in the table) and hands out
 * shared_ptr<const LookupSpace>. Entries are evicted in insertion
 * order beyond a small capacity; an evicted space stays alive for as
 * long as some system still holds its pointer.
 *
 * Each cached space also hosts the DecisionTables of the optimizers
 * that search it, one per planning temperature: a table is keyed on
 * (TEG module, band, cold source, T_safe, quantum), and an optimizer
 * takes one for T_safe and, under safe mode, one for T_safe - margin.
 * A sweep whose points share a configuration computes each cooling
 * decision once per process instead of once per point, and its T_safe
 * and margin axes meet in shared tables wherever two points plan at
 * the same temperature. Tables are created empty (they fill lazily,
 * decision by decision), kept in insertion order up to the same
 * capacity, and evicted together with their space; shared_ptr keeps
 * an evicted one alive for its users.
 *
 * Thread-safe: concurrent acquire() / decisionTable() calls (e.g.
 * sweep workers constructing H2PSystems in parallel) serialize on one
 * mutex, so a given fingerprint is built exactly once.
 */

#ifndef H2P_SCHED_LOOKUP_CACHE_H_
#define H2P_SCHED_LOOKUP_CACHE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cluster/server.h"
#include "sched/cooling_optimizer.h"
#include "sched/lookup_space.h"
#include "thermal/teg.h"

namespace h2p {
namespace sched {

/** Shared, fingerprint-deduplicated LookupSpace storage. */
class LookupSpaceCache
{
  public:
    /** The process-wide instance. */
    static LookupSpaceCache &instance();

    /**
     * The table for @p server sampled on @p params: served from the
     * cache when an identical model was built before, built (and
     * cached) otherwise. The returned space is immutable and safe to
     * read from any number of threads.
     */
    std::shared_ptr<const LookupSpace> acquire(
        const cluster::ServerParams &server,
        const LookupSpaceParams &params);

    /**
     * The decision table shared by every optimizer over @p space and
     * @p teg with this band and cold source that plans at @p t_safe_c
     * with this quantum (DecisionTable::serves). Null when @p quantum
     * is 0 (the cache is off); a private table when @p space is not
     * one this cache holds (built elsewhere, or already evicted).
     * Throws h2p::Error on a negative quantum.
     */
    std::shared_ptr<DecisionTable> decisionTable(
        const LookupSpace &space, const thermal::TegModule &teg,
        double band_c, double cold_source_c, double t_safe_c,
        double quantum);

    /**
     * Digest of every parameter the sampled table depends on: each
     * field the CPU power, CPU thermal and grid-extent visits name.
     * Two (server, params) pairs with equal fingerprints produce
     * bit-identical tables.
     */
    static uint64_t fingerprint(const cluster::ServerParams &server,
                                const LookupSpaceParams &params);

    /** Entries currently cached. */
    size_t size() const;

    /** Tables built since construction (or the last clear()). */
    uint64_t builds() const;

    /** acquire() calls served without building. */
    uint64_t hits() const;

    /**
     * Drop every space and decision table and zero the counters
     * (tests/benches).
     */
    void clear();

  private:
    LookupSpaceCache() = default;

    /** A cached space and the decision tables over it. */
    struct Entry
    {
        std::shared_ptr<const LookupSpace> space;
        /** Oldest first, bounded by kCapacity. */
        std::vector<std::shared_ptr<DecisionTable>> tables;
    };

    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, Entry> spaces_;
    /** Insertion order, oldest first, for capacity eviction. */
    std::deque<uint64_t> order_;
    uint64_t builds_ = 0;
    uint64_t hits_ = 0;

    /**
     * Bound on spaces, and on tables per space; far above any
     * realistic sweep's model variety.
     */
    static constexpr size_t kCapacity = 64;
};

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_LOOKUP_CACHE_H_
