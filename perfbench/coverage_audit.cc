// coverage_audit: the fig04 / headline_claims trial protocol.
// Ground truths are computed in set-up. Each trial samples frames without
// replacement at one of the paper's per-panel fractions, runs the
// Smokescreen estimator and the baselines (EBGS, Hoeffding,
// Hoeffding-Serfling and CLT; Stein for MAX) and computes the realized error
// (rank-relative for MAX). A round is 2 videos x 4 aggregates x 8 fractions,
// then one degenerate-sample probe. The detector and memo do no work here.
// kStreams auditors run concurrently, each on its own thread with its own
// sample streams, for the same reason as profile_cold's streams.
//
// The probe is the one operation that fails, in every round: on a fixed
// ua-detrac COUNT sample in which every frame holds a car (most samples at
// fig04's fraction are), the sample range is 0, so the Smokescreen and
// baseline bounds collapse to 0 and cannot cover a true COUNT below N. The
// same fault makes about 45% of ua-detrac COUNT trials at fig04's fractions
// miss, so that cell's gate reads only the trials whose sample range is not
// 0, which the fault does not touch; the probe counts the rest in `failed`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/mean_baselines.h"
#include "baselines/stein.h"
#include "checks.h"
#include "core/avg_estimator.h"
#include "core/quantile_estimator.h"
#include "harness.h"
#include "stats/rng.h"
#include "stats/sampling.h"

namespace perfbench {

namespace {

constexpr int kStreams = 4;
constexpr double kDelta = 0.05;
constexpr int kSteps = 8;
constexpr int64_t kRound = 2 * 4 * kSteps;
/// The coverage gate reads each stream's first this-many rounds, whose
/// samples come from fixed seeds, so its verdict is the same in every run.
constexpr int64_t kGateRounds = 25;
constexpr uint64_t kGateSeed = 0x6A7E5EEDULL;

/// The degenerate-sample probe: ua-detrac (video 0) COUNT (aggregate 2) at
/// its fig04 fraction, on the first sample from a fixed seed whose outputs
/// are all equal.
constexpr size_t kProbeVideo = 0;
constexpr size_t kProbeAggregate = 2;
constexpr uint64_t kProbeSeed = 0x9B0BEULL;

/// fig04's last fraction per panel, indexed [video][aggregate] in the order
/// of Env::videos (ua-detrac, night-street) and kAggregates.
constexpr double kEndFraction[2][4] = {{0.06, 0.06, 0.003, 0.02}, {0.10, 0.10, 0.0015, 0.05}};

/// Estimators per trial: the mean family runs Smokescreen, EBGS, Hoeffding,
/// Hoeffding-Serfling and CLT; MAX runs Smokescreen and Stein.
constexpr int kEstimators = 5;
constexpr const char* kMeanNames[kEstimators] = {"Smokescreen", "EBGS", "Hoeffding",
                                                 "Hoeffding-Serfling", "CLT"};
constexpr const char* kMaxNames[2] = {"Smokescreen", "Stein"};
/// CLT has no finite-sample guarantee (fig05); it is measured, not gated.
constexpr int kClt = 4;

struct Cell {
  int64_t trials = 0;
  int64_t violations[kEstimators] = {};
  /// Trials of the probed cell left out of its gate: their sample range is 0.
  int64_t zero_range = 0;
};

/// One auditor's state.
struct Stream {
  Stream(uint64_t run_seed, int index)
      : gate_rng(sm::stats::HashCombine({kGateSeed, static_cast<uint64_t>(index)})),
        run_rng(sm::stats::HashCombine({run_seed, 0xA0D17ULL, static_cast<uint64_t>(index)})) {}

  sm::stats::Rng gate_rng;
  sm::stats::Rng run_rng;
  int64_t rounds = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t probe_failures = 0;
  Layers layers;
  Cell gate[2][4];
  std::vector<double> sample;
  std::vector<uint32_t> stamps;
  uint32_t stamp = 0;
  bool rank_error_agrees = true;
  bool samples_valid = true;
};

}  // namespace

Outcome RunCoverageAudit(const Args& args) {
  // Inline executor (no workers): the estimators never use it, and its
  // threads would add to the streams' and to the set-up.
  sm::engine::RuntimeOptions options;
  options.num_threads = 1;
  Env env = Setup(options);
  Outcome out;
  out.metrics["setup_s"] = SecondsSinceStart();

  const OwnTruth own = BuildOwnTruth(env, out);

  const sm::core::SmokescreenMeanEstimator smk_mean;
  const sm::core::SmokescreenQuantileEstimator smk_quantile;
  const sm::baselines::EbgsEstimator ebgs;
  const sm::baselines::HoeffdingEstimator hoeffding;
  const sm::baselines::HoeffdingSerflingEstimator hoeffding_serfling;
  const sm::baselines::CltEstimator clt;
  const sm::baselines::SteinQuantileEstimator stein;
  const sm::core::MeanEstimator* baselines[] = {&ebgs, &hoeffding, &hoeffding_serfling, &clt};

  std::vector<Stream> streams;
  for (int s = 0; s < kStreams; ++s) streams.emplace_back(args.seed, s);

  auto run_trial = [&](Stream& st, size_t v, size_t a, int step, bool traced) {
    const Video& video = env.videos[v];
    const sm::query::GroundTruth& truth = video.truth[a];
    const int64_t population = video.dataset().num_frames();
    const double fraction = kEndFraction[v][a] * static_cast<double>(step) / kSteps;
    const int64_t n = std::max<int64_t>(10, sm::stats::FractionToCount(population, fraction));
    const bool is_max = kAggregates[a] == sm::query::AggregateFunction::kMax;
    bool covered[kEstimators] = {true, true, true, true, true};
    sm::stats::Rng& rng = st.rounds < kGateRounds ? st.gate_rng : st.run_rng;
    ++st.attempted;

    sm::util::Result<std::vector<int64_t>> indices = sm::util::Status::Internal("not reached");
    {
      Span span(traced, st.layers, "stats.sample_ms");
      indices = sm::stats::SampleWithoutReplacement(population, n, rng);
    }
    bool ok = indices.ok();
    if (ok) {
      st.sample.clear();
      for (int64_t i : *indices) st.sample.push_back(truth.outputs[static_cast<size_t>(i)]);
    }
    double library_rank_error = 0.0;
    double smk_y = 0.0;
    if (ok && !is_max) {
      const double scale = kAggregates[a] == sm::query::AggregateFunction::kAvg
                               ? 1.0
                               : static_cast<double>(population);
      sm::util::Result<sm::core::Estimate> estimates[kEstimators] = {
          sm::util::Status::Internal("not reached"), sm::util::Status::Internal("not reached"),
          sm::util::Status::Internal("not reached"), sm::util::Status::Internal("not reached"),
          sm::util::Status::Internal("not reached")};
      {
        Span span(traced, st.layers, "core.estimate_ms");
        estimates[0] = smk_mean.EstimateMean(st.sample, population, kDelta);
      }
      {
        Span span(traced, st.layers, "baselines.estimate_ms");
        for (int e = 1; e < kEstimators; ++e) {
          estimates[e] = baselines[e - 1]->EstimateMean(st.sample, population, kDelta);
        }
      }
      for (int e = 0; e < kEstimators && ok; ++e) {
        ok = estimates[e].ok();
        if (ok) {
          covered[e] = OwnRelativeError(estimates[e]->y_approx * scale, own.y[v][a]) <=
                       estimates[e]->err_b;
        }
      }
    } else if (ok) {
      const double r = SpecFor(kAggregates[a]).EffectiveQuantileR();
      sm::util::Result<sm::core::Estimate> ours = sm::util::Status::Internal("not reached");
      sm::util::Result<sm::core::Estimate> theirs = sm::util::Status::Internal("not reached");
      {
        Span span(traced, st.layers, "core.estimate_ms");
        ours = smk_quantile.EstimateQuantile(st.sample, population, r, true, kDelta);
      }
      {
        Span span(traced, st.layers, "baselines.estimate_ms");
        theirs = stein.EstimateQuantile(st.sample, population, r, true, kDelta);
      }
      ok = ours.ok() && theirs.ok();
      if (ok) {
        sm::util::Result<double> errors[2] = {sm::util::Status::Internal("not reached"),
                                              sm::util::Status::Internal("not reached")};
        {
          Span span(traced, st.layers, "query.rank_error_ms");
          errors[0] = sm::query::RankRelativeError(truth.outputs, ours->y_approx, truth.y_true);
          errors[1] = sm::query::RankRelativeError(truth.outputs, theirs->y_approx, truth.y_true);
        }
        ok = errors[0].ok() && errors[1].ok();
        if (ok) {
          covered[0] = *errors[0] <= ours->err_b;
          covered[1] = *errors[1] <= theirs->err_b;
          library_rank_error = *errors[0];
          smk_y = ours->y_approx;
        }
      }
    }
    if (!ok) {
      ++st.failed;
      return;
    }

    // Independent checks.
    st.samples_valid = st.samples_valid &&
                       SampleIsValid(*indices, population, st.stamps, ++st.stamp) &&
                       static_cast<int64_t>(indices->size()) == n;
    if (is_max) {
      const double own_error = OwnRankRelativeError(own.sorted_max[v], smk_y, own.y[v][a]);
      st.rank_error_agrees =
          st.rank_error_agrees && std::fabs(own_error - library_rank_error) <= 1e-12;
    }
    if (st.rounds < kGateRounds) {
      Cell& cell = st.gate[v][a];
      if (v == kProbeVideo && a == kProbeAggregate &&
          std::equal(st.sample.begin() + 1, st.sample.end(), st.sample.begin())) {
        ++cell.zero_range;
        return;
      }
      ++cell.trials;
      for (int e = 0; e < (is_max ? 2 : kEstimators); ++e) cell.violations[e] += covered[e] ? 0 : 1;
    }
  };

  // The probe's sample, drawn once.
  const Video& probe_video = env.videos[kProbeVideo];
  const int64_t probe_population = probe_video.dataset().num_frames();
  const int64_t probe_n = std::max<int64_t>(
      10, sm::stats::FractionToCount(probe_population,
                                     kEndFraction[kProbeVideo][kProbeAggregate]));
  sm::stats::Rng probe_rng(kProbeSeed);
  std::vector<double> probe_sample;
  for (int draw = 0; draw < 1000; ++draw) {
    auto indices = sm::stats::SampleWithoutReplacement(probe_population, probe_n, probe_rng);
    CheckOk(indices.status(), "probe sample");
    probe_sample.clear();
    for (int64_t i : *indices) {
      probe_sample.push_back(probe_video.truth[kProbeAggregate].outputs[static_cast<size_t>(i)]);
    }
    if (std::equal(probe_sample.begin() + 1, probe_sample.end(), probe_sample.begin())) break;
  }

  // Passes when every reliable estimator's bound covers the true COUNT.
  auto run_probe = [&](Stream& st) {
    ++st.attempted;
    bool ok = true;
    const sm::core::MeanEstimator* reliable[] = {&smk_mean, &ebgs, &hoeffding,
                                                 &hoeffding_serfling};
    for (const sm::core::MeanEstimator* estimator : reliable) {
      auto estimate = estimator->EstimateMean(probe_sample, probe_population, kDelta);
      ok = ok && estimate.ok() &&
           OwnRelativeError(estimate->y_approx * static_cast<double>(probe_population),
                            own.y[kProbeVideo][kProbeAggregate]) <= estimate->err_b;
    }
    if (!ok) {
      ++st.failed;
      ++st.probe_failures;
    }
  };

  auto run_slice = [&](double seconds, bool traced) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<int64_t> operations(kStreams, 0);
    std::vector<double> active_seconds(kStreams, 0.0);
    RunStreams(kStreams, [&](int s) {
      Stream& st = streams[static_cast<size_t>(s)];
      const int64_t start = NowNs();
      do {
        for (size_t v = 0; v < 2; ++v) {
          for (size_t a = 0; a < 4; ++a) {
            for (int step = 1; step <= kSteps; ++step) run_trial(st, v, a, step, traced);
          }
        }
        run_probe(st);
        operations[static_cast<size_t>(s)] += kRound;
        ++st.rounds;
      } while (NowNs() < deadline || st.rounds < kGateRounds);
      active_seconds[static_cast<size_t>(s)] = static_cast<double>(NowNs() - start) / 1e9;
    });
    return StreamsSlice(operations, active_seconds);
  };

  if (!args.trace) {
    out.metrics["requests_per_s"] = run_slice(args.seconds, false).Rate();
  } else {
    const TraceSplit split = RunAlternating(args.seconds, *env.registry, run_slice);
    Layers layers;
    for (const Stream& st : streams) layers.Merge(st.layers);
    InitLayerMetrics(env, out.metrics);
    RegistryLayerMetrics(split.traced_delta, split.traced.operations, out.metrics);
    // Per-trial means: the layer's total over the traced trials.
    const double traced_trials = static_cast<double>(split.traced.operations);
    for (const char* name :
         {"stats.sample_ms", "core.estimate_ms", "baselines.estimate_ms", "query.rank_error_ms"}) {
      out.metrics[name] = layers.Sum(name) / traced_trials;
    }
    out.metrics["trace.overhead_pct"] = split.OverheadPct();
  }

  Cell gate[2][4];
  bool samples_valid = true;
  bool rank_error_agrees = true;
  int64_t probe_failures = 0;
  for (const Stream& st : streams) {
    out.attempted += st.attempted;
    out.failed += st.failed;
    probe_failures += st.probe_failures;
    samples_valid = samples_valid && st.samples_valid;
    rank_error_agrees = rank_error_agrees && st.rank_error_agrees;
    for (size_t v = 0; v < 2; ++v) {
      for (size_t a = 0; a < 4; ++a) {
        gate[v][a].trials += st.gate[v][a].trials;
        gate[v][a].zero_range += st.gate[v][a].zero_range;
        for (int e = 0; e < kEstimators; ++e) gate[v][a].violations[e] += st.gate[v][a].violations[e];
      }
    }
  }
  out.Check(samples_valid, "coverage_audit: a sample had a repeated or out-of-range index");
  out.Check(rank_error_agrees,
            "coverage_audit: RankRelativeError disagrees with the benchmark's own rank error");
  for (size_t v = 0; v < 2; ++v) {
    for (size_t a = 0; a < 4; ++a) {
      const Cell& cell = gate[v][a];
      const bool is_max = kAggregates[a] == sm::query::AggregateFunction::kMax;
      const int64_t limit = BinomialCritical(cell.trials, kDelta, kAcceptanceAlpha);
      for (int e = 0; e < (is_max ? 2 : kEstimators); ++e) {
        const char* name = is_max ? kMaxNames[e] : kMeanNames[e];
        const bool gated = is_max || e != kClt;
        std::fprintf(stderr, "coverage_audit: %s %s %s: %lld/%lld violations (limit %lld%s)%s\n",
                     env.videos[v].label.c_str(),
                     sm::query::AggregateFunctionName(kAggregates[a]), name,
                     static_cast<long long>(cell.violations[e]),
                     static_cast<long long>(cell.trials), static_cast<long long>(limit),
                     gated ? "" : ", not gated",
                     cell.zero_range == 0
                         ? ""
                         : (", " + std::to_string(cell.zero_range) +
                            " zero-range trials left to the probe")
                               .c_str());
        if (!gated) continue;
        out.Check(cell.violations[e] <= limit,
                  "coverage_audit: " + env.videos[v].label + " " +
                      sm::query::AggregateFunctionName(kAggregates[a]) + " " + name +
                      " covers the truth less often than 1 - delta");
      }
    }
  }
  std::fprintf(stderr, "coverage_audit: degenerate-sample probe failed %lld times\n",
               static_cast<long long>(probe_failures));
  return out;
}

}  // namespace perfbench
