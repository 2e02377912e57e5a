// Independent output checks: computations made apart from the library, so a
// fault in the library cannot hide behind its own arithmetic.

#ifndef SMOKESCREEN_PERFBENCH_CHECKS_H_
#define SMOKESCREEN_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "query/aggregate.h"

namespace perfbench {

/// The aggregate of `outputs` computed here: a left-to-right sum, the mean,
/// or the r-quantile read off a sorted copy (smallest value whose cumulative
/// share reaches r).
double OwnAggregate(smokescreen::query::AggregateFunction aggregate,
                    const std::vector<double>& outputs, double r);

/// |approx - truth| / |truth| (0 when both are 0, infinity when only truth is).
double OwnRelativeError(double approx, double truth);

/// |rank(approx) - rank(truth)| / rank(truth), where rank(x) is the share of
/// `sorted_outputs` (ascending) that is <= x.
double OwnRankRelativeError(const std::vector<double>& sorted_outputs, double approx,
                            double truth);

/// True when every index lies in [0, population) and none repeats. `stamps`
/// is caller scratch reused across calls; `stamp` must differ per call.
bool SampleIsValid(std::span<const int64_t> indices, int64_t population,
                   std::vector<uint32_t>& stamps, uint32_t stamp);

/// Smallest c with P(Binomial(trials, p) > c) <= alpha: the most violations
/// an estimator that holds coverage 1 - p may show before the acceptance
/// test rejects it.
int64_t BinomialCritical(int64_t trials, double p, double alpha);

/// The rejection level every binomial acceptance test in the benchmark uses.
inline constexpr double kAcceptanceAlpha = 1e-6;

}  // namespace perfbench

#endif  // SMOKESCREEN_PERFBENCH_CHECKS_H_
