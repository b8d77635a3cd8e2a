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
 *
 * An optimizer plans at no more than two temperatures, both fixed when
 * it is built: T_safe for a Normal circulation and T_safe - margin for
 * one that safe mode marks WidenMargin (sched/safe_mode.h; the margin
 * is 0 when safe mode is off). With a cache quantum q > 0 each of them
 * has one DecisionTable: planning utilizations are quantized to
 * multiples of q and the chosen setting per bucket is memoized there.
 * The cache is an approximation knob, not pure memoization — with it
 * enabled the optimizer plans at the quantized utilization — so an
 * optimizer built with q = 0 searches exactly, and the system enables
 * it through [perf] optimizer_cache_quantum.
 *
 * One table per planning temperature: a decision is a pure function
 * of the look-up space, the TEG module, band_c, the cold source, the
 * temperature planned at, q and the bucket, and a table is keyed on
 * all of them but the bucket. The optimizer takes its tables from
 * sched::LookupSpaceCache when it is built, so every optimizer of a
 * configuration shares them: a sweep computes each decision once per
 * process instead of once per point, and the widened table of
 * T_safe 60 with margin 3 is the normal table of T_safe 57.
 */

#ifndef H2P_SCHED_COOLING_OPTIMIZER_H_
#define H2P_SCHED_COOLING_OPTIMIZER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/circulation.h"
#include "sched/lookup_space.h"
#include "sched/safe_mode.h"
#include "thermal/teg.h"

namespace h2p {
namespace sched {

/**
 * Optimizer configuration. The cold source is the datacenter's
 * (cluster::DatacenterParams::cold_source_c), the margin safe mode's
 * and the cache quantum [perf]'s; they reach the optimizer as
 * constructor arguments.
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
 * Memoized cooling decisions at one planning temperature.
 *
 * Its identity is fixed at construction: the LookupSpace searched
 * (by address), the TEG module (count, device and cold-plate
 * parameters), band_c, the cold source, the temperature planned at
 * (T_safe, or T_safe - margin) and the utilization quantum q.
 * With a quantum q an optimizer plans at the nearest multiple of q;
 * 1e-3 shifts the planned die temperature by well under the
 * acceptance band and makes repeated scheduler calls O(1).
 * It holds one flat array of llround(1/q) + 1 slots, one per
 * utilization bucket.
 *
 * Thread-safe and lock-free. A slot goes kEmpty -> kWriting -> kReady
 * exactly once: a reader that acquire-loads kReady uses the stored
 * result; any other reader searches itself and tries to publish (CAS
 * kEmpty -> kWriting, a plain store, a release store of kReady). A
 * reader that loses the race keeps its own result — the search is a
 * pure function of the table's identity, so every racer computes the
 * same bits.
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
     * Bound on slots (the bucket count llround(1/q) + 1): quanta finer
     * than ~1/65535 are rejected.
     */
    static constexpr size_t kMaxBuckets = 65536;

    /**
     * A table for optimizers over @p space and @p teg with band
     * half-width @p band_c against @p cold_source_c, planning at
     * @p t_safe_c and at multiples of @p quantum. Throws h2p::Error
     * unless 0 < quantum and llround(1/quantum) + 1 <= kMaxBuckets.
     */
    DecisionTable(const LookupSpace &space, const thermal::TegModule &teg,
                  double band_c, double cold_source_c, double t_safe_c,
                  double quantum);

    /**
     * Digest of the decision inputs besides the space: TEG module,
     * band, cold source, planning temperature and quantum.
     */
    static uint64_t fingerprint(const thermal::TegModule &teg,
                                double band_c, double cold_source_c,
                                double t_safe_c, double quantum);

    /**
     * True when an optimizer over these inputs may plan at
     * @p t_safe_c through this table.
     */
    bool serves(const LookupSpace &space, const thermal::TegModule &teg,
                double band_c, double cold_source_c,
                double t_safe_c) const
    {
        return &space == space_ &&
               fingerprint(teg, band_c, cold_source_c, t_safe_c,
                           quantum_) == inputs_;
    }

    /** Planning-utilization quantum. */
    double quantum() const { return quantum_; }

    /** The slot of utilization bucket @p bucket (< llround(1/q) + 1). */
    Slot &slot(size_t bucket) { return slots_[bucket]; }

    /** Decisions currently published. */
    size_t size() const;

  private:
    const LookupSpace *space_;
    uint64_t inputs_;
    double quantum_;
    size_t buckets_;
    std::unique_ptr<Slot[]> slots_;
};

/**
 * Grid-search cooling controller over a LookupSpace.
 *
 * The decision tables may be shared with other optimizers and are
 * thread-safe; the optimizer's own state is not: choose() updates its
 * hit/miss counters. Each H2PSystem owns one optimizer and calls it
 * from its run's serial step loop; parallelism lives above, across
 * runs (core::SweepEngine), which share the immutable LookupSpace and
 * the decision tables.
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
     * @param margin_c How far below T_safe a WidenMargin circulation
     *        plans, C (SafeModeParams::margin_c; 0 with safe mode
     *        off). T_safe - margin_c must exceed the cold source.
     * @param quantum Decision-cache quantum; 0 searches every choose()
     *        at the exact utilization. Otherwise the tables come from
     *        LookupSpaceCache (private ones for a space it does not
     *        hold).
     */
    CoolingOptimizer(const LookupSpace &space,
                     const thermal::TegModule &teg, double cold_source_c,
                     const OptimizerParams &params = {},
                     double margin_c = 0.0, double quantum = 0.0);

    /**
     * Choose the cooling setting for a circulation whose planning
     * utilization is @p plan_util (Steps 1-3) under safe-mode
     * @p action: Normal plans at T_safe, WidenMargin at T_safe -
     * margin, ColdFallback returns coldestFallback().
     */
    OptimizerResult choose(
        double plan_util,
        SafeModeAction action = SafeModeAction::Normal) const;

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
     * Decisions this optimizer served from its tables, whichever
     * optimizer computed them.
     */
    size_t cacheHits() const { return cache_hits_; }

    /** Grid searches this optimizer ran with the cache on. */
    size_t cacheMisses() const { return cache_misses_; }

    /** Decisions currently memoized in this optimizer's tables. */
    size_t cacheSize() const;

    const OptimizerParams &params() const { return params_; }

  private:
    /**
     * A decision at @p t_safe_c through @p table, or an exact search
     * when @p table is null.
     */
    OptimizerResult decide(double plan_util, double t_safe_c,
                           DecisionTable *table) const;

    /** The uncached three-tier grid search. */
    OptimizerResult search(double plan_util, double t_safe_c) const;

    double tegPowerAt(const LookupPoint &p) const;

    const LookupSpace &space_;
    const thermal::TegModule &teg_;
    double cold_source_c_;
    OptimizerParams params_;
    /** T_safe - margin, the WidenMargin planning temperature. */
    double widened_t_safe_c_;

    /** Tables at T_safe and at T_safe - margin; null with q = 0. */
    std::shared_ptr<DecisionTable> normal_;
    std::shared_ptr<DecisionTable> widened_;
    mutable size_t cache_hits_ = 0;
    mutable size_t cache_misses_ = 0;
};

} // namespace sched
} // namespace h2p

#endif // H2P_SCHED_COOLING_OPTIMIZER_H_
