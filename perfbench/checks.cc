#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace sq = smokescreen::query;

double OwnAggregate(sq::AggregateFunction aggregate, const std::vector<double>& outputs,
                    double r) {
  double sum = 0.0;
  for (double v : outputs) sum += v;
  const double n = static_cast<double>(outputs.size());
  switch (aggregate) {
    case sq::AggregateFunction::kAvg:
      return sum / n;
    case sq::AggregateFunction::kSum:
    case sq::AggregateFunction::kCount:
      return sum;
    default: {
      std::vector<double> sorted(outputs);
      std::sort(sorted.begin(), sorted.end());
      // Smallest k whose cumulative share (k + 1) / n reaches r.
      size_t k = 0;
      while (k + 1 < sorted.size() && static_cast<double>(k + 1) / n < r - 1e-12) ++k;
      return sorted[k];
    }
  }
}

double OwnRelativeError(double approx, double truth) {
  if (truth == 0.0) return approx == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::fabs(approx - truth) / std::fabs(truth);
}

double OwnRankRelativeError(const std::vector<double>& sorted_outputs, double approx,
                            double truth) {
  const double n = static_cast<double>(sorted_outputs.size());
  auto rank = [&](double x) {
    return static_cast<double>(std::upper_bound(sorted_outputs.begin(), sorted_outputs.end(), x) -
                               sorted_outputs.begin()) /
           n;
  };
  const double rank_truth = rank(truth);
  const double rank_approx = rank(approx);
  if (rank_truth == 0.0) {
    return rank_approx == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return std::fabs(rank_approx - rank_truth) / rank_truth;
}

bool SampleIsValid(std::span<const int64_t> indices, int64_t population,
                   std::vector<uint32_t>& stamps, uint32_t stamp) {
  if (stamps.size() < static_cast<size_t>(population)) {
    stamps.assign(static_cast<size_t>(population), 0);
  }
  for (int64_t i : indices) {
    if (i < 0 || i >= population) return false;
    uint32_t& seen = stamps[static_cast<size_t>(i)];
    if (seen == stamp) return false;
    seen = stamp;
  }
  return true;
}

int64_t BinomialCritical(int64_t trials, double p, double alpha) {
  // Walk the pmf upwards in log space; the tail beyond c is 1 - CDF(c).
  const double n = static_cast<double>(trials);
  double cdf = 0.0;
  for (int64_t c = 0; c <= trials; ++c) {
    const double k = static_cast<double>(c);
    const double log_pmf = std::lgamma(n + 1) - std::lgamma(k + 1) - std::lgamma(n - k + 1) +
                           k * std::log(p) + (n - k) * std::log1p(-p);
    cdf += std::exp(log_pmf);
    if (1.0 - cdf <= alpha) return c;
  }
  return trials;
}

}  // namespace perfbench
