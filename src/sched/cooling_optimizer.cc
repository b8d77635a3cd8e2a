#include "sched/cooling_optimizer.h"

#include <algorithm>
#include <cmath>

#include "sched/lookup_cache.h"
#include "util/error.h"
#include "util/hash.h"

namespace h2p {
namespace sched {

namespace {

/**
 * Utilization buckets for quantum @p q: llround(1/q) + 1, bounded by
 * DecisionTable::kMaxBuckets. The bound is checked on 1/q itself, as
 * llround overflows (LLONG_MIN on x86) long before 1/q is infinite,
 * which would make every bucket plan at U = 0.
 */
size_t
bucketCount(double q)
{
    expect(q > 0.0, "a decision table needs a positive quantum");
    expect(1.0 / q < static_cast<double>(DecisionTable::kMaxBuckets) - 0.5,
           "cache quantum ", q, " needs llround(1/q) + 1 > ",
           DecisionTable::kMaxBuckets, " utilization buckets; the "
           "decision table holds at most ", DecisionTable::kMaxBuckets);
    return static_cast<size_t>(std::llround(1.0 / q)) + 1;
}

} // namespace

// --------------------------------------------------------- DecisionTable

DecisionTable::DecisionTable(const LookupSpace &space,
                             const thermal::TegModule &teg, double band_c,
                             double cold_source_c, double t_safe_c,
                             double quantum)
    : space_(&space),
      inputs_(fingerprint(teg, band_c, cold_source_c, t_safe_c, quantum)),
      quantum_(quantum), buckets_(bucketCount(quantum)),
      slots_(new Slot[buckets_])
{
}

uint64_t
DecisionTable::fingerprint(const thermal::TegModule &teg, double band_c,
                           double cold_source_c, double t_safe_c,
                           double quantum)
{
    util::FieldHasher hasher;
    hasher.h.size(teg.count());
    hasher.fields(teg.device().params());
    hasher.fields(teg.plate().params());
    for (double x : {band_c, cold_source_c, t_safe_c, quantum})
        hasher.h.f64(x);
    return hasher.h.digest();
}

size_t
DecisionTable::size() const
{
    size_t ready = 0;
    for (size_t b = 0; b < buckets_; ++b)
        ready += slots_[b].state.load(std::memory_order_acquire) == kReady;
    return ready;
}

// ------------------------------------------------------ CoolingOptimizer

CoolingOptimizer::CoolingOptimizer(const LookupSpace &space,
                                   const thermal::TegModule &teg,
                                   double cold_source_c,
                                   const OptimizerParams &params,
                                   double margin_c, double quantum)
    : space_(space), teg_(teg), cold_source_c_(cold_source_c),
      params_(params), widened_t_safe_c_(params.t_safe_c - margin_c)
{
    expect(params.band_c >= 0.0, "band width must be non-negative");
    expect(margin_c >= 0.0, "margin must be non-negative");
    expect(widened_t_safe_c_ > cold_source_c,
           "T_safe must exceed the cold-source temperature");
    LookupSpaceCache &cache = LookupSpaceCache::instance();
    normal_ = cache.decisionTable(space, teg, params.band_c, cold_source_c,
                                  params.t_safe_c, quantum);
    widened_ = margin_c == 0.0
                   ? normal_
                   : cache.decisionTable(space, teg, params.band_c,
                                         cold_source_c, widened_t_safe_c_,
                                         quantum);
}

size_t
CoolingOptimizer::cacheSize() const
{
    if (normal_ == nullptr)
        return 0;
    return normal_->size() + (widened_ != normal_ ? widened_->size() : 0);
}

double
CoolingOptimizer::tegPowerAt(const LookupPoint &p) const
{
    return teg_.powerFromTemps(p.t_out_c, cold_source_c_, p.flow_lph);
}

std::vector<LookupPoint>
CoolingOptimizer::candidateSet(double plan_util) const
{
    std::vector<LookupPoint> in_band;
    space_.forEachInSlice(plan_util, [&](const LookupPoint &p) {
        if (std::abs(p.t_cpu_c - params_.t_safe_c) <= params_.band_c)
            in_band.push_back(p);
    });
    return in_band;
}

OptimizerResult
CoolingOptimizer::choose(double plan_util, SafeModeAction action) const
{
    switch (action) {
      case SafeModeAction::WidenMargin:
        return decide(plan_util, widened_t_safe_c_, widened_.get());
      case SafeModeAction::ColdFallback:
        return coldestFallback(plan_util);
      case SafeModeAction::Normal:
        break;
    }
    return decide(plan_util, params_.t_safe_c, normal_.get());
}

OptimizerResult
CoolingOptimizer::decide(double plan_util, double t_safe_c,
                         DecisionTable *table) const
{
    expect(plan_util >= 0.0 && plan_util <= 1.0,
           "planning utilization must be in [0, 1]");
    if (table == nullptr)
        return search(plan_util, t_safe_c);
    const double q = table->quantum();

    // plan_util <= 1 keeps the bucket within llround(1/q), the last
    // slot.
    const int64_t bucket = std::llround(plan_util / q);
    DecisionTable::Slot &slot = table->slot(static_cast<size_t>(bucket));
    if (slot.state.load(std::memory_order_acquire) ==
        DecisionTable::kReady) {
        ++cache_hits_;
        return slot.result;
    }
    ++cache_misses_;
    OptimizerResult res = search(
        std::clamp(static_cast<double>(bucket) * q, 0.0, 1.0), t_safe_c);
    uint8_t expected = DecisionTable::kEmpty;
    if (slot.state.compare_exchange_strong(expected,
                                           DecisionTable::kWriting,
                                           std::memory_order_relaxed)) {
        slot.result = res;
        slot.state.store(DecisionTable::kReady, std::memory_order_release);
    }
    return res;
}

OptimizerResult
CoolingOptimizer::search(double plan_util, double t_safe_c) const
{
    OptimizerResult best;
    bool found = false;

    auto consider = [&](const LookupPoint &p) {
        double power = tegPowerAt(p);
        if (!found || power > best.teg_power_w) {
            found = true;
            best.setting.t_in_c = p.t_in_c;
            best.setting.flow_lph = p.flow_lph;
            best.teg_power_w = power;
            best.t_cpu_c = p.t_cpu_c;
        }
    };

    // Step 2+3: maximize TEG power on the A = U ∩ X intersection,
    // streaming over the slice instead of materializing it.
    size_t in_band = 0;
    space_.forEachInSlice(plan_util, [&](const LookupPoint &p) {
        if (std::abs(p.t_cpu_c - t_safe_c) <= params_.band_c) {
            ++in_band;
            consider(p);
        }
    });
    best.candidates = in_band;
    if (found)
        return best;

    // Fallback 1: the band is empty; use any *safe* point (at or
    // below T_safe + band) with the highest TEG power. This happens
    // when even the warmest setting leaves the CPU cold (low load) —
    // then the warmest inlet wins — or when the grid skips the band.
    best.fallback = true;
    space_.forEachInSlice(plan_util, [&](const LookupPoint &p) {
        if (p.t_cpu_c <= t_safe_c + params_.band_c)
            consider(p);
    });
    if (found)
        return best;

    // Fallback 2: nothing is safe (extreme load); apply maximum
    // cooling: coldest inlet at the highest flow.
    return coldestFallback(plan_util);
}

OptimizerResult
CoolingOptimizer::coldestFallback(double plan_util) const
{
    expect(plan_util >= 0.0 && plan_util <= 1.0,
           "planning utilization must be in [0, 1]");
    const LookupPoint coldest = space_.coldestInSlice(plan_util);
    OptimizerResult best;
    best.fallback = true;
    best.setting.t_in_c = coldest.t_in_c;
    best.setting.flow_lph = coldest.flow_lph;
    best.teg_power_w = tegPowerAt(coldest);
    best.t_cpu_c = coldest.t_cpu_c;
    return best;
}

} // namespace sched
} // namespace h2p
