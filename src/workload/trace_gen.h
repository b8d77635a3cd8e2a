/**
 * @file
 * Synthetic cluster-trace generation.
 *
 * The paper evaluates on three trace classes (Sec. V-C):
 *
 *  - Drastic:   Alibaba cluster, 1,313 servers / 12 h — drastic and
 *               frequent utilization fluctuation.
 *  - Irregular: Google cluster slice, 1,000 servers / 24 h — common
 *               variation with occasional high peaks.
 *  - Common:    another Google slice — very little fluctuation.
 *
 * We cannot redistribute those traces, so the generator synthesizes
 * seeded per-server series with the same qualitative statistics: a
 * diurnal baseline, an Ornstein-Uhlenbeck noise process whose
 * volatility distinguishes drastic from common, and a Poisson burst
 * process that produces the irregular profile's high peaks. Real
 * traces in CSV form can be loaded through workload/trace_io.h
 * instead.
 */

#ifndef H2P_WORKLOAD_TRACE_GEN_H_
#define H2P_WORKLOAD_TRACE_GEN_H_

#include <cstddef>
#include <string>

#include "util/random.h"
#include "workload/trace.h"

namespace h2p {
namespace workload {

/** The three evaluation trace classes of the paper. */
enum class TraceProfile { Drastic, Irregular, Common };

/** Human-readable profile name ("drastic", ...). */
std::string toString(TraceProfile profile);

/** Tunable statistics of a synthetic trace. */
struct TraceGenParams
{
    /** Long-run mean utilization. */
    double base_util = 0.25;
    /** Amplitude of the diurnal swing. */
    double diurnal_amp = 0.10;
    /** OU noise standard deviation (stationary). */
    double ou_sigma = 0.03;
    /** OU mean-reversion time constant, seconds. */
    double ou_tau_s = 3600.0;
    /** Expected bursts per server per day. */
    double bursts_per_day = 0.0;
    /** Burst peak utilization added on top of the baseline. */
    double burst_height = 0.55;
    /** Mean burst duration, seconds. */
    double burst_duration_s = 1800.0;
    /** Per-step jump probability (drastic load swings). */
    double jump_prob = 0.0;
    /** Jump magnitude standard deviation. */
    double jump_sigma = 0.20;

    /** Canonical parameterization of one of the paper's profiles. */
    static TraceGenParams forProfile(TraceProfile profile);
};

/**
 * Seeded generator of UtilizationTrace matrices.
 */
class TraceGenerator
{
  public:
    /** @param seed Root seed; every server forks a sub-stream. */
    explicit TraceGenerator(uint64_t seed = 2020);

    /**
     * Generate a trace. Servers are split across hardwareThreads()
     * workers; each draws only from its own forked stream, so the
     * trace is the same bit for bit on any core count or affinity.
     *
     * @param params Statistical shape.
     * @param num_servers Number of servers.
     * @param duration_s Covered time, seconds.
     * @param dt_s Sampling interval, seconds (paper: 300).
     */
    UtilizationTrace generate(const TraceGenParams &params,
                              size_t num_servers, double duration_s,
                              double dt_s = 300.0) const;

    /**
     * Generate one of the paper's three profiles at its published
     * scale (drastic: 1,313 servers / 12 h; others: 1,000 / 24 h)
     * unless @p num_servers overrides it (0 keeps the default).
     */
    UtilizationTrace generateProfile(TraceProfile profile,
                                     size_t num_servers = 0,
                                     double dt_s = 300.0) const;

  private:
    Rng root_;
};

} // namespace workload
} // namespace h2p

#endif // H2P_WORKLOAD_TRACE_GEN_H_
