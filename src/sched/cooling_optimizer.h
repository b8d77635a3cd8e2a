/**
 * @file
 * Cooling-setting optimizer (Sec. V-B, Steps 1-3 and Fig. 13).
 *
 * Every scheduling interval the controller picks {flow rate, inlet
 * temperature} for a circulation:
 *
 *  Step 1: take the planning utilization (U_max of the circulation,
 *          or U_avg under workload balancing) — the plane U.
 *  Step 2: collect look-up points whose CPU temperature falls inside
 *          [T_safe - band, T_safe + band] — the space X.
 *  Step 3: on the intersection A = U ∩ X, evaluate the TEG module
 *          power under every candidate setting and keep the maximum.
 *
 * When the band is empty (workload too hot or too cold for any
 * setting to land exactly at T_safe), the optimizer falls back to the
 * safe candidate with the highest TEG power, and finally to the
 * coldest setting available.
 *
 * The search itself streams over the look-up grid through
 * LookupSpace::forEachInSlice — no candidate vector is materialized;
 * the coldest fallback reads LookupSpace::coldestInSlice.
 * An optional decision cache short-circuits the scheduler's repeated
 * calls: planning utilizations are quantized to the quantum of the
 * DecisionTable the optimizer is given, and the chosen setting per
 * (quantized util, T_safe) pair is memoized there. The cache is an
 * approximation knob, not pure memoization — with it enabled the
 * optimizer plans at the quantized utilization — so an optimizer
 * built without a table searches exactly, and the system enables it
 * through [perf] optimizer_cache_quantum.
 *
 * With the quantum fixed, a decision is a pure function of the look-up
 * space, the TEG module, band_c, the cold source, T_safe and the
 * bucket, so one table serves every optimizer of that configuration:
 * systems built through core::H2PSystem share theirs via
 * sched::LookupSpaceCache, and a sweep computes each decision once
 * per process instead of once per point.
 */

#ifndef H2P_SCHED_COOLING_OPTIMIZER_H_
#define H2P_SCHED_COOLING_OPTIMIZER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "cluster/circulation.h"
#include "sched/lookup_space.h"
#include "thermal/teg.h"

namespace h2p {
namespace sched {

/**
 * Optimizer configuration. The cold source is the datacenter's
 * (cluster::DatacenterParams::cold_source_c) and the cache quantum its
 * DecisionTable's; both reach the optimizer as constructor arguments.
 */
struct OptimizerParams
{
    /**
     * CPU safe operating temperature, C. The paper pre-defines it as
     * ~80 % of the vendor maximum (78.9 C -> 63); Fig. 13's worked
     * example uses 62.
     */
    double t_safe_c = 63.0;
    /** Half-width of the acceptance band around T_safe, C. */
    double band_c = 1.0;

    /** Names every field once: INI keys ([optimizer]) and digests. */
    template <typename V>
    void visit(V &v)
    {
        v("t_safe_c", t_safe_c);
        v("band_c", band_c);
    }
};

/** The chosen setting plus diagnostic detail. */
struct OptimizerResult
{
    cluster::CoolingSetting setting;
    /** Predicted TEG module power at the chosen setting, W. */
    double teg_power_w = 0.0;
    /** Predicted CPU temperature at the planning utilization, C. */
    double t_cpu_c = 0.0;
    /** Number of candidate points in the band (|A|). */
    size_t candidates = 0;
    /** True when the fallback path was taken (empty band). */
    bool fallback = false;
};

/**
 * Memoized cooling decisions of one optimizer configuration.
 *
 * Its identity is fixed at construction: the LookupSpace searched
 * (by address), the TEG module (count, device and cold-plate
 * parameters), band_c, the cold source and the utilization quantum q.
 * With a quantum q an optimizer plans at the nearest multiple of q;
 * 1e-3 shifts the planned die temperature by well under the
 * acceptance band and makes repeated scheduler calls O(1).
 * For each T_safe it is asked about it holds one flat array of
 * llround(1/q) + 1 slots, one per utilization bucket, created on
 * first use; a run uses at most two (T_safe, and T_safe - margin
 * under safe mode).
 *
 * Thread-safe and lock-free once an array exists. A slot goes
 * kEmpty -> kWriting -> kReady exactly once: a reader that
 * acquire-loads kReady uses the stored result; any other reader
 * searches itself and tries to publish (CAS kEmpty -> kWriting, a
 * plain store, a release store of kReady). A reader that loses the
 * race keeps its own result — the search is a pure function of the
 * table's identity, so every racer computes the same bits.
 */
class DecisionTable
{
  public:
    /** Slot states. */
    static constexpr uint8_t kEmpty = 0;
    static constexpr uint8_t kWriting = 1;
    static constexpr uint8_t kReady = 2;

    /** One utilization bucket's decision. */
    struct Slot
    {
        std::atomic<uint8_t> state{kEmpty};
        OptimizerResult result;
    };

    /**
     * Bound on slots per T_safe array (the bucket count
     * llround(1/q) + 1): quanta finer than ~1/65535 are rejected.
     */
    static constexpr size_t kMaxBuckets = 65536;

    /** T_safe arrays kept; older ones live on in their users. */
    static constexpr size_t kMaxArrays = 64;

    /**
     * A table for optimizers over @p space and @p teg with band
     * half-width @p band_c against @p cold_source_c, planning at
     * multiples of @p quantum (T_safe plays no part). Throws
     * h2p::Error unless 0 < quantum and llround(1/quantum) + 1 <=
     * kMaxBuckets.
     */
    DecisionTable(const LookupSpace &space, const thermal::TegModule &teg,
                  double band_c, double cold_source_c, double quantum);

    /**
     * Digest of the decision inputs besides the space: TEG module,
     * band, cold source and quantum.
     */
    static uint64_t fingerprint(const thermal::TegModule &teg,
                                double band_c, double cold_source_c,
                                double quantum);

    /** True when an optimizer over these inputs may use this table. */
    bool serves(const LookupSpace &space, const thermal::TegModule &teg,
                double band_c, double cold_source_c) const
    {
        return &space == space_ &&
               fingerprint(teg, band_c, cold_source_c, quantum_) ==
                   inputs_;
    }

    /** Planning-utilization quantum. */
    double quantum() const { return quantum_; }

    /**
     * The slot array for @p t_safe_c, created on first use. Takes the
     * table's mutex: callers keep the pointer across decisions.
     */
    std::shared_ptr<Slot[]> slots(double t_safe_c);

    /** Decisions currently published, over every kept T_safe array. */
    size_t size() const;

  private:
    const LookupSpace *space_;
    uint64_t inputs_;
    double quantum_;
    /** Slots per T_safe array. */
    size_t buckets_;

    mutable std::mutex mutex_;
    /** T_safe bit pattern -> array, oldest first. */
    std::vector<std::pair<uint64_t, std::shared_ptr<Slot[]>>> arrays_;
};

/**
 * Grid-search cooling controller over a LookupSpace.
 *
 * The decision table may be shared with other optimizers and is
 * thread-safe; the optimizer's own state is not: choose() updates its
 * hit/miss counters and its per-T_safe handles into the table. Each
 * H2PSystem owns one optimizer and calls it from its run's serial step
 * loop; parallelism lives above, across runs (core::SweepEngine),
 * which share the immutable LookupSpace and the decision table.
 */
class CoolingOptimizer
{
  public:
    /**
     * @param space Look-up space of the server model (not owned; must
     *        outlive the optimizer).
     * @param teg TEG module at each server outlet (not owned).
     * @param cold_source_c Natural-water cold-loop temperature the
     *        TEGs reject to, C.
     * @param table Decision table to plan and memoize through; it
     *        must serve this configuration (DecisionTable::serves).
     *        Null searches every choose() at the exact utilization.
     */
    CoolingOptimizer(const LookupSpace &space,
                     const thermal::TegModule &teg, double cold_source_c,
                     const OptimizerParams &params = {},
                     std::shared_ptr<DecisionTable> table = nullptr);

    /**
     * Choose the cooling setting for a circulation whose planning
     * utilization is @p plan_util (Steps 1-3).
     */
    OptimizerResult choose(double plan_util) const;

    /**
     * Same, planning against an overridden safe temperature instead
     * of params().t_safe_c. Degraded-mode control widens its margin
     * by planning at T_safe - margin (sched/safe_mode.h).
     */
    OptimizerResult choose(double plan_util, double t_safe_c) const;

    /**
     * The maximum-cooling fallback: of the slice at @p plan_util, the
     * candidate with the lowest predicted CPU temperature — which on
     * the monotone lookup grid is the coldest inlet (tin_min) at the
     * highest flow (flow_max). This is the setting Fallback 2 of
     * choose() applies when nothing is safe, and the setting
     * degraded-mode control applies when it stops trusting its
     * sensors. It plans at the exact @p plan_util (never through the
     * decision table) and reads LookupSpace::coldestInSlice, which
     * scans only the cell's coldest-point candidates yet returns the
     * full slice scan's first minimum bit for bit. The result always
     * has fallback == true.
     */
    OptimizerResult coldestFallback(double plan_util) const;

    /**
     * The candidate set A for @p plan_util (exposed for the Fig. 13
     * bench): look-up points within the T_safe band.
     */
    std::vector<LookupPoint> candidateSet(double plan_util) const;

    /**
     * Decisions this optimizer served from its table, whichever
     * optimizer computed them.
     */
    size_t cacheHits() const { return cache_hits_; }

    /** Grid searches this optimizer ran with the cache on. */
    size_t cacheMisses() const { return cache_misses_; }

    /** Decisions currently memoized in this optimizer's table. */
    size_t cacheSize() const { return table_ ? table_->size() : 0; }

    const OptimizerParams &params() const { return params_; }

  private:
    /** The uncached three-tier grid search. */
    OptimizerResult search(double plan_util, double t_safe_c) const;

    /** This optimizer's handle to the table's array for @p t_safe_c. */
    DecisionTable::Slot *slotsFor(double t_safe_c) const;

    double tegPowerAt(const LookupPoint &p) const;

    const LookupSpace &space_;
    const thermal::TegModule &teg_;
    double cold_source_c_;
    OptimizerParams params_;

    /** Null when the cache is off. */
    std::shared_ptr<DecisionTable> table_;
    /** T_safe bit pattern -> array of table_, in first-use order. */
    mutable std::vector<
        std::pair<uint64_t, std::shared_ptr<DecisionTable::Slot[]>>>
        slots_;
    mutable size_t cache_hits_ = 0;
    mutable size_t cache_misses_ = 0;
};

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_COOLING_OPTIMIZER_H_
