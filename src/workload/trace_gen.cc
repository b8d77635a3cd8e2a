#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace h2p {
namespace workload {

namespace {

/** Servers one worker claims at a time. */
constexpr size_t kServerBlock = 64;

} // namespace

std::string
toString(TraceProfile profile)
{
    switch (profile) {
      case TraceProfile::Drastic:
        return "drastic";
      case TraceProfile::Irregular:
        return "irregular";
      case TraceProfile::Common:
        return "common";
    }
    return "unknown";
}

TraceGenParams
TraceGenParams::forProfile(TraceProfile profile)
{
    TraceGenParams p;
    switch (profile) {
      case TraceProfile::Drastic:
        // Alibaba-like: violent, frequent swings on a low mean.
        p.base_util = 0.22;
        p.diurnal_amp = 0.08;
        p.ou_sigma = 0.15;
        p.ou_tau_s = 1200.0;
        p.jump_prob = 0.10;
        p.jump_sigma = 0.25;
        break;
      case TraceProfile::Irregular:
        // Google-like slice with occasional high peaks.
        p.base_util = 0.24;
        p.diurnal_amp = 0.10;
        p.ou_sigma = 0.04;
        p.ou_tau_s = 5400.0;
        p.bursts_per_day = 1.2;
        p.burst_height = 0.50;
        p.burst_duration_s = 2400.0;
        break;
      case TraceProfile::Common:
        // Google-like quiet slice at a slightly higher mean.
        p.base_util = 0.27;
        p.diurnal_amp = 0.08;
        p.ou_sigma = 0.02;
        p.ou_tau_s = 7200.0;
        break;
    }
    return p;
}

TraceGenerator::TraceGenerator(uint64_t seed) : root_(seed) {}

UtilizationTrace
TraceGenerator::generate(const TraceGenParams &params, size_t num_servers,
                         double duration_s, double dt_s) const
{
    expect(num_servers >= 1, "need at least one server");
    expect(duration_s > 0.0, "duration must be positive");
    expect(dt_s > 0.0, "sampling interval must be positive");

    size_t steps = static_cast<size_t>(std::ceil(duration_s / dt_s));

    double theta = 1.0 / params.ou_tau_s;
    double ou_decay = std::exp(-theta * dt_s);
    double ou_step_sigma =
        params.ou_sigma * std::sqrt(1.0 - std::exp(-2.0 * theta * dt_s));
    double burst_prob_per_step =
        params.bursts_per_day * dt_s / 86400.0;

    // Server-major: one server's whole series at a time, its state in
    // locals, written into its column of the preallocated rows. Every
    // server draws only from its own forked stream, so neither the
    // order of servers nor the worker a server runs on changes a bit.
    std::vector<std::vector<double>> rows(
        steps, std::vector<double>(num_servers));
    auto generateServer = [&](size_t i) {
        Rng rng = root_.fork(i + 1);
        double phase = rng.uniform(0.0, 2.0 * M_PI);
        // Heterogeneous long-run means across servers.
        double base = rng.truncNormal(params.base_util,
                                      0.25 * params.base_util, 0.02, 0.9);
        double ou = rng.normal(0.0, params.ou_sigma);
        double burst_left_s = 0.0;
        double burst_height = 0.0;

        for (size_t t = 0; t < steps; ++t) {
            double clock_s = dt_s * static_cast<double>(t);

            // Diurnal baseline (24-h period, per-server phase).
            double diurnal =
                params.diurnal_amp *
                std::sin(2.0 * M_PI * clock_s / 86400.0 + phase);

            // Exact OU transition over one step.
            ou = ou * ou_decay + rng.normal(0.0, ou_step_sigma);

            // Occasional drastic jumps.
            if (params.jump_prob > 0.0 && rng.bernoulli(params.jump_prob))
                ou += rng.normal(0.0, params.jump_sigma);

            // Poisson bursts (irregular profile's high peaks).
            if (burst_left_s <= 0.0 && burst_prob_per_step > 0.0 &&
                rng.bernoulli(burst_prob_per_step)) {
                burst_left_s =
                    rng.exponential(1.0 / params.burst_duration_s);
                burst_height = params.burst_height * rng.uniform(0.7, 1.3);
            }
            double burst = 0.0;
            if (burst_left_s > 0.0) {
                burst = burst_height;
                burst_left_s -= dt_s;
            }

            rows[t][i] = std::clamp(base + diurnal + ou + burst, 0.0, 1.0);
        }
    };
    // Blocks of servers, so two workers rarely write one cache line.
    const size_t blocks = (num_servers + kServerBlock - 1) / kServerBlock;
    util::parallelForDynamic(blocks, 0, [&](size_t b) {
        const size_t end = std::min(num_servers, (b + 1) * kServerBlock);
        for (size_t i = b * kServerBlock; i < end; ++i)
            generateServer(i);
    });

    UtilizationTrace trace(num_servers, dt_s);
    for (std::vector<double> &row : rows)
        trace.addStep(std::move(row));
    return trace;
}

UtilizationTrace
TraceGenerator::generateProfile(TraceProfile profile, size_t num_servers,
                                double dt_s) const
{
    TraceGenParams params = TraceGenParams::forProfile(profile);
    size_t servers = num_servers;
    double duration_s;
    if (profile == TraceProfile::Drastic) {
        if (servers == 0)
            servers = 1313;
        duration_s = 12.0 * 3600.0;
    } else {
        if (servers == 0)
            servers = 1000;
        duration_s = 24.0 * 3600.0;
    }
    return generate(params, servers, duration_s, dt_s);
}

} // namespace workload
} // namespace h2p
