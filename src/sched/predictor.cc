#include "sched/predictor.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace h2p {
namespace sched {

EwmaPredictor::EwmaPredictor(size_t num_streams,
                             const PredictorParams &params)
    : params_(params), mean_(num_streams, params.initial),
      var_(num_streams, 0.0)
{
    expect(num_streams >= 1, "predictor needs at least one stream");
    expect(params.alpha > 0.0 && params.alpha <= 1.0,
           "alpha must be in (0, 1]");
    expect(params.kappa >= 0.0, "kappa must be non-negative");
    expect(params.initial >= 0.0 && params.initial <= 1.0,
           "initial guess must be in [0, 1]");
}

void
EwmaPredictor::observe(const std::vector<double> &utils)
{
    expect(utils.size() == mean_.size(), "expected ", mean_.size(),
           " observations, got ", utils.size());
    double a = params_.alpha;
    for (size_t i = 0; i < utils.size(); ++i) {
        double err = utils[i] - mean_[i];
        // Standard EWMA mean/variance recursion (e.g. RiskMetrics).
        mean_[i] += a * err;
        var_[i] = (1.0 - a) * (var_[i] + a * err * err);
    }
    ++observations_;
}

double
EwmaPredictor::mean(size_t i) const
{
    expect(i < mean_.size(), "stream ", i, " out of range");
    return mean_[i];
}

double
EwmaPredictor::stddev(size_t i) const
{
    expect(i < var_.size(), "stream ", i, " out of range");
    return std::sqrt(var_[i]);
}

double
EwmaPredictor::upperBound(size_t i) const
{
    double u = mean(i) + params_.kappa * stddev(i);
    return std::clamp(u, 0.0, 1.0);
}

double
EwmaPredictor::maxUpperBound(size_t lo, size_t hi) const
{
    expect(lo < hi && hi <= mean_.size(),
           "stream range out of bounds");
    double best = 0.0;
    for (size_t i = lo; i < hi; ++i)
        best = std::max(best, upperBound(i));
    return best;
}

void
EwmaPredictor::visit(util::Archive &ar)
{
    ar.count(mean_.size(), "predictor stream count");
    for (size_t i = 0; i < mean_.size(); ++i) {
        ar.f64(mean_[i]);
        ar.f64(var_[i]);
    }
    ar.size(observations_);
}

} // namespace sched
} // namespace h2p
