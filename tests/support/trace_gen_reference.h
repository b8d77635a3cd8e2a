/**
 * @file
 * Test-only reference for workload::TraceGenerator::generate: the
 * time-major generator the server-major, multi-worker one replaced.
 *
 * The library's generator runs each server's whole step loop on its
 * own (servers split across workers) and fills that server's column.
 * This reference keeps the original loop order — every step touches
 * every server's state in turn, on one thread — so tests can prove
 * the two agree bit for bit: each server draws only from its own
 * forked stream, so neither the loop order nor the thread a server
 * runs on may change a sample.
 */

#ifndef H2P_TESTS_SUPPORT_TRACE_GEN_REFERENCE_H_
#define H2P_TESTS_SUPPORT_TRACE_GEN_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/random.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace h2p {
namespace oracle {

/** The time-major generator, one pass over every server per step. */
inline workload::UtilizationTrace
timeMajorTrace(uint64_t seed, const workload::TraceGenParams &params,
               size_t num_servers, double duration_s,
               double dt_s = 300.0)
{
    expect(num_servers >= 1, "need at least one server");
    expect(duration_s > 0.0, "duration must be positive");
    expect(dt_s > 0.0, "sampling interval must be positive");

    const Rng root(seed);
    size_t steps = static_cast<size_t>(std::ceil(duration_s / dt_s));
    workload::UtilizationTrace trace(num_servers, dt_s);

    // Per-server state: OU level, burst remaining time/height, phase.
    struct ServerState
    {
        Rng rng{0};
        double ou = 0.0;
        double burst_left_s = 0.0;
        double burst_height = 0.0;
        double phase = 0.0;
        double base = 0.0;
    };
    std::vector<ServerState> servers(num_servers);
    for (size_t i = 0; i < num_servers; ++i) {
        auto &s = servers[i];
        s.rng = root.fork(i + 1);
        s.phase = s.rng.uniform(0.0, 2.0 * M_PI);
        // Heterogeneous long-run means across servers.
        s.base = s.rng.truncNormal(params.base_util,
                                   0.25 * params.base_util, 0.02, 0.9);
        s.ou = s.rng.normal(0.0, params.ou_sigma);
    }

    double theta = 1.0 / params.ou_tau_s;
    double ou_step_sigma =
        params.ou_sigma * std::sqrt(1.0 - std::exp(-2.0 * theta * dt_s));
    double burst_prob_per_step =
        params.bursts_per_day * dt_s / 86400.0;

    for (size_t t = 0; t < steps; ++t) {
        double clock_s = dt_s * static_cast<double>(t);
        std::vector<double> row(num_servers);
        for (size_t i = 0; i < num_servers; ++i) {
            auto &s = servers[i];

            // Diurnal baseline (24-h period, per-server phase).
            double diurnal =
                params.diurnal_amp *
                std::sin(2.0 * M_PI * clock_s / 86400.0 + s.phase);

            // Exact OU transition over one step.
            s.ou = s.ou * std::exp(-theta * dt_s) +
                   s.rng.normal(0.0, ou_step_sigma);

            // Occasional drastic jumps.
            if (params.jump_prob > 0.0 &&
                s.rng.bernoulli(params.jump_prob)) {
                s.ou += s.rng.normal(0.0, params.jump_sigma);
            }

            // Poisson bursts (irregular profile's high peaks).
            if (s.burst_left_s <= 0.0 && burst_prob_per_step > 0.0 &&
                s.rng.bernoulli(burst_prob_per_step)) {
                s.burst_left_s =
                    s.rng.exponential(1.0 / params.burst_duration_s);
                s.burst_height =
                    params.burst_height * s.rng.uniform(0.7, 1.3);
            }
            double burst = 0.0;
            if (s.burst_left_s > 0.0) {
                burst = s.burst_height;
                s.burst_left_s -= dt_s;
            }

            row[i] = std::clamp(s.base + diurnal + s.ou + burst, 0.0,
                                1.0);
        }
        trace.addStep(std::move(row));
    }
    return trace;
}

} // namespace oracle
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_TRACE_GEN_REFERENCE_H_
