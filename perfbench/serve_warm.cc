// serve_warm: a closed loop of two clients sharing one Runtime at executor
// width 2, over both videos, after a warm-up that fills each shared memo at
// every grid resolution. A request starts a Session and calls Profile ->
// ChooseTradeoff -> Execute; every fourth request of a client repeats its
// previous (video, query, seed) and should be served by the ProfileCache.
// No request makes a model invocation.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "checks.h"
#include "core/profiler.h"
#include "degrade/degraded_view.h"
#include "engine/session.h"
#include "harness.h"
#include "stats/rng.h"

namespace perfbench {

namespace {

constexpr int kClients = 2;
/// Requests per client round: 24 fresh (three passes over the 8 video x
/// aggregate combinations) and 8 repeats.
constexpr int64_t kRound = 32;
/// Fresh profiles per client kept for the serial replay check.
constexpr size_t kReplayPerClient = 4;
/// The error budget handed to ChooseTradeoff is this multiple of the
/// profile's tightest bound: every profile can meet it, so no request fails
/// for want of a point, and several points usually qualify. The floor keeps
/// the budget positive when a degenerate sample gives a zero bound.
constexpr double kBudgetSlack = 1.25;
constexpr double kBudgetFloor = 0.01;

struct Request {
  size_t video = 0;
  size_t aggregate = 0;
  uint64_t seed = 0;
  bool repeat = false;
};

/// Client `c`'s request at position `p`: positions 3, 7, 11, ... repeat the
/// request just before them; the others walk the 8 combinations, the two
/// clients on different videos at the same step.
Request RequestAt(uint64_t run_seed, int c, int64_t p) {
  if (p % 4 == 3) {
    Request req = RequestAt(run_seed, c, p - 1);
    req.repeat = true;
    return req;
  }
  const int64_t q = p - p / 4;  // Index among this client's fresh requests.
  Request req;
  req.video = static_cast<size_t>((q + c) % 2);
  req.aggregate = static_cast<size_t>((q / 2) % 4);
  req.seed = sm::stats::HashCombine(
      {run_seed, 0x5E7EULL, static_cast<uint64_t>(c), static_cast<uint64_t>(q)});
  return req;
}

struct Kept {
  Request request;
  sm::core::ProfileHandle profile;
};

struct ClientState {
  int64_t next = 0;
  /// Executions, and those whose realized error exceeded the returned
  /// err_b, per [video][aggregate] (measured, not gated).
  int64_t executions[2][4] = {};
  int64_t execute_misses[2][4] = {};
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  Layers layers;
  std::vector<Kept> kept;
  sm::core::ProfileHandle previous;  // The last generated profile.
};

}  // namespace

Outcome RunServeWarm(const Args& args) {
  sm::engine::RuntimeOptions options;
  options.num_threads = 2;
  options.max_concurrent_sessions = kClients;
  Env env = Setup(options);
  Outcome out;
  out.metrics["setup_s"] = SecondsSinceStart();
  sm::engine::Runtime& runtime = *env.runtime;
  const OwnTruth own = BuildOwnTruth(env, out);

  // Warm-up: fill each shared memo at every resolution and contrast the grid
  // uses. It is the same kind of work as a request, so it is not set-up.
  for (Video& video : env.videos) {
    video.detector->ResetLedger();
    std::set<std::pair<int, double>> columns;
    for (const sm::degrade::InterventionSet& candidate : video.grid) {
      columns.emplace(candidate.EffectiveResolution(video.detector->max_resolution()),
                      candidate.contrast_scale);
    }
    for (const auto& [resolution, contrast] : columns) {
      auto outputs = video.handle->source().AllOutputs(SpecFor(kAggregates[0]), resolution,
                                                       contrast);
      CheckOk(outputs.status(), "warm-up AllOutputs");
    }
  }
  std::array<int64_t, 2> invocations_after_warmup{};
  std::array<int64_t, 2> frames_after_warmup{};
  for (size_t v = 0; v < 2; ++v) {
    invocations_after_warmup[v] = env.videos[v].handle->source().model_invocations();
    frames_after_warmup[v] = env.videos[v].detector->frames();
  }

  std::array<ClientState, kClients> clients;

  auto run_request = [&](int c, bool traced) {
    ClientState& state = clients[static_cast<size_t>(c)];
    const Request req = RequestAt(args.seed, c, state.next++);
    Video& video = env.videos[req.video];
    sm::engine::SessionConfig config;
    config.spec = SpecFor(kAggregates[req.aggregate]);
    config.seed = req.seed;
    ++state.attempted;

    auto session = runtime.StartSession(video.handle, config);
    bool ok = session.ok();
    Layers& layers = state.layers;
    sm::core::ProfileHandle profile;
    bool from_cache = false;
    double budget = 0.0;
    double tightest = std::numeric_limits<double>::infinity();
    sm::util::Result<sm::core::TradeoffChoice> choice =
        sm::util::Status::Internal("not reached");
    if (ok) {
      sm::util::Result<sm::core::ProfileHandle> generated =
          sm::util::Status::Internal("not reached");
      {
        // Generated profiles only: a cached one is not a profile's cost.
        Span span(traced, layers, "engine.profile_ms");
        generated = (*session)->Profile(video.grid);
        if (generated.ok() && (*session)->last_profile_from_cache()) span.Discard();
      }
      ok = generated.ok();
      if (ok) {
        profile = *generated;
        from_cache = (*session)->last_profile_from_cache();
        for (const sm::core::ProfilePoint& point : profile->points) {
          tightest = std::min(tightest, point.err_bound);
        }
        budget = std::max(kBudgetFloor, kBudgetSlack * tightest);
        Span span(traced, layers, "core.choose_ms");
        choice = (*session)->ChooseTradeoff(budget);
      }
      ok = ok && choice.ok();
    }
    double executed_y = 0.0;
    double executed_err_b = 0.0;
    if (ok) {
      sm::util::Result<sm::core::EstimationResult> executed =
          sm::util::Status::Internal("not reached");
      {
        Span span(traced, layers, "engine.execute_ms");
        executed = (*session)->Execute(choice->interventions);
      }
      ok = executed.ok();
      if (ok) {
        executed_y = executed->estimate.y_approx;
        executed_err_b = executed->estimate.err_b;
      }
    }
    if (!ok) {
      ++state.failed;
      std::fprintf(stderr, "serve_warm: %s %s request failed: %s\n", video.label.c_str(),
                   sm::query::AggregateFunctionName(kAggregates[req.aggregate]),
                   (!session.ok()    ? session.status()
                    : profile == nullptr ? sm::util::Status::Internal("Profile failed")
                    : !choice.ok()       ? choice.status()
                                         : sm::util::Status::Internal("Execute failed"))
                       .ToString()
                       .c_str());
      return;
    }

    const double truth = own.y[req.video][req.aggregate];
    const double realized =
        kAggregates[req.aggregate] == sm::query::AggregateFunction::kMax
            ? OwnRankRelativeError(own.sorted_max[req.video], executed_y, truth)
            : OwnRelativeError(executed_y, truth);
    ++state.executions[req.video][req.aggregate];
    state.execute_misses[req.video][req.aggregate] += realized > executed_err_b ? 1 : 0;

    if (choice->err_bound > budget) {
      state.check_failures.push_back("serve_warm: chosen point's err_bound exceeds its budget");
    }
    if (req.repeat) {
      if (!from_cache || state.previous == nullptr ||
          !sm::engine::ProfilesBitIdentical(*profile, *state.previous)) {
        state.check_failures.push_back(
            "serve_warm: a repeated request was not served the generated profile from cache");
      }
    } else {
      if (from_cache) {
        state.check_failures.push_back("serve_warm: a fresh request was served from cache");
      }
      state.previous = profile;
      if (state.kept.size() < kReplayPerClient) state.kept.push_back(Kept{req, profile});
    }

    if (traced) {
      if (!from_cache) {
        const sm::core::ProfilerReport& report = (*session)->last_report();
        layers.Add("core.correction_ms", report.correction_seconds * 1e3);
        layers.Add("core.groups_ms", report.groups_seconds * 1e3);
        layers.Add("core.points", static_cast<double>(profile->points.size()));
        // No model work on this workload, so the kernel share is zero.
        layers.Add("core.profile_other_ms",
                   (report.total_seconds - report.correction_seconds) * 1e3);
        layers.Add("query.cache_hits", static_cast<double>(report.cache_hits));
      }
      // The degraded view Execute builds, rebuilt here to time the layer.
      sm::stats::Rng rng(req.seed);
      sm::util::Result<sm::degrade::DegradedView> view = sm::util::Status::Internal("not reached");
      {
        Span span(traced, layers, "degrade.view_ms");
        view = sm::degrade::DegradedView::Create(video.dataset(), video.prior(),
                                                 choice->interventions,
                                                 video.detector->max_resolution(), rng);
      }
      if (!view.ok()) state.check_failures.push_back("serve_warm: DegradedView::Create failed");
    }
  };

  auto run_slice = [&](double seconds, bool traced) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<int64_t> operations(kClients, 0);
    std::vector<double> active_seconds(kClients, 0.0);
    // Two client threads and two executor workers: the process never has
    // more than 4 running threads.
    RunStreams(kClients, [&](int c) {
      const int64_t start = NowNs();
      do {
        for (int64_t r = 0; r < kRound; ++r) run_request(c, traced);
        operations[static_cast<size_t>(c)] += kRound;
      } while (NowNs() < deadline);
      active_seconds[static_cast<size_t>(c)] = static_cast<double>(NowNs() - start) / 1e9;
    });
    return StreamsSlice(operations, active_seconds);
  };

  if (!args.trace) {
    const Slice run = run_slice(args.seconds, false);
    out.metrics["requests_per_s"] = run.Rate();
  } else {
    const TraceSplit split = RunAlternating(args.seconds, *env.registry, run_slice);
    InitLayerMetrics(env, out.metrics);
    RegistryLayerMetrics(split.traced_delta, split.traced.operations, out.metrics);
    Layers layers;
    int64_t requests = 0;
    for (const ClientState& state : clients) {
      layers.Merge(state.layers);
      requests += state.attempted;
    }
    // Model work since the warm-up, per request (0 when the memo serves all).
    int64_t frames = 0;
    int64_t invocations = 0;
    for (size_t v = 0; v < 2; ++v) {
      frames += env.videos[v].detector->frames() - frames_after_warmup[v];
      invocations +=
          env.videos[v].handle->source().model_invocations() - invocations_after_warmup[v];
    }
    out.metrics["detect.frames"] = static_cast<double>(frames) / static_cast<double>(requests);
    out.metrics["query.model_invocations"] =
        static_cast<double>(invocations) / static_cast<double>(requests);
    for (const char* name :
         {"engine.profile_ms", "engine.execute_ms", "core.correction_ms", "core.groups_ms",
          "core.points", "core.profile_other_ms", "core.choose_ms", "degrade.view_ms"}) {
      out.metrics[name] = layers.Mean(name);
    }
    // Memo hits per traced request (a cached profile makes none).
    const double hits =
        layers.Sum("query.cache_hits") / static_cast<double>(split.traced.operations);
    const double misses = out.metrics["query.model_invocations"];
    out.metrics["query.cache_hits"] = hits;
    out.metrics["query.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out.metrics["trace.overhead_pct"] = split.OverheadPct();
  }

  // Exactly-once across sessions: after the warm-up no request reached the
  // model, and no key reached it twice over the whole run.
  for (size_t v = 0; v < 2; ++v) {
    const Video& video = env.videos[v];
    out.Check(video.handle->source().model_invocations() == invocations_after_warmup[v],
              "serve_warm: the timed phase made model invocations on " + video.label);
    out.Check(video.detector->frames() == frames_after_warmup[v],
              "serve_warm: the detector ran after the warm-up on " + video.label);
    out.Check(video.detector->duplicate_keys() == 0,
              "serve_warm: a (frame, resolution, contrast) key reached the detector twice");
  }
  for (size_t v = 0; v < 2; ++v) {
    for (size_t a = 0; a < 4; ++a) {
      int64_t executions = 0, misses = 0;
      for (const ClientState& state : clients) {
        executions += state.executions[v][a];
        misses += state.execute_misses[v][a];
      }
      std::fprintf(stderr,
                   "serve_warm: %s %s: %lld/%lld executions exceed their returned err_b "
                   "(not gated)\n",
                   env.videos[v].label.c_str(), sm::query::AggregateFunctionName(kAggregates[a]),
                   static_cast<long long>(misses), static_cast<long long>(executions));
    }
  }
  for (ClientState& state : clients) {
    out.attempted += state.attempted;
    out.failed += state.failed;
    for (std::string& failure : state.check_failures) out.check_failures.push_back(failure);
  }

  // Concurrent profiles replayed serially, bypassing the cache, must be
  // bit-identical.
  for (const ClientState& state : clients) {
    for (const Kept& k : state.kept) {
      sm::engine::SessionConfig config;
      config.spec = SpecFor(kAggregates[k.request.aggregate]);
      config.seed = k.request.seed;
      config.use_profile_cache = false;
      auto session = runtime.StartSession(env.videos[k.request.video].handle, config);
      CheckOk(session.status(), "StartSession (replay)");
      auto replay = (*session)->Profile(env.videos[k.request.video].grid);
      out.Check(replay.ok() && sm::engine::ProfilesBitIdentical(**replay, *k.profile),
                "serve_warm: a serial replay differs from the concurrent profile");
    }
  }
  return out;
}

}  // namespace perfbench
