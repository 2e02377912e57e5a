// profile_cold: the first-profile cost an administrator pays. Every request
// profiles one video over the 400-candidate grid against a memo that holds
// no outputs yet (a fresh FrameOutputSource), with default ProfilerOptions,
// at executor width 1. Requests alternate between the two videos and rotate
// through AVG/SUM/COUNT/MAX; a round is all 8 combinations.
//
// kStreams administrators profile concurrently, each a closed loop on its own
// thread with its own detectors. One stream alone spread 20-32% between 30 s
// runs on a shared 4-core host (each core drifts between a fast and a slow
// state for tens of seconds); four streams average the cores' states.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "checks.h"
#include "core/profiler.h"
#include "detect/registry.h"
#include "harness.h"
#include "query/output_source.h"
#include "stats/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr int kStreams = 4;
constexpr int64_t kRound = 8;
/// The coverage gate reads each stream's first this-many requests, so its
/// verdict is a function of the seed alone, whatever the run length.
constexpr int64_t kGateRequests = 32;
/// Stream 0's first requests, replayed on their warm memo at another
/// executor width.
constexpr int64_t kReplayRequests = 8;
constexpr int kReplayWidth = 2;

struct Request {
  size_t video = 0;
  size_t aggregate = 0;
  uint64_t seed = 0;
};

Request RequestAt(uint64_t run_seed, int stream, int64_t i) {
  return Request{static_cast<size_t>(i % 2), static_cast<size_t>((i / 2) % 4),
                 sm::stats::HashCombine({run_seed, 0xC01DULL, static_cast<uint64_t>(stream),
                                         static_cast<uint64_t>(i)})};
}

/// A replay sample: the request, its memo (now warm) and its profile.
struct Kept {
  Request request;
  std::unique_ptr<sm::query::FrameOutputSource> source;
  sm::core::Profile profile;
};

/// One administrator: its own decorated detectors (so the key ledger is its
/// own) and everything it measured.
struct Stream {
  std::array<std::unique_ptr<TimedDetector>, 2> detectors;
  int64_t next = 0;
  int64_t failed = 0;
  Layers layers;
  std::vector<std::string> check_failures;
  int64_t gate_profiles = 0;
  int64_t gate_violating = 0;
  int64_t max_profiles = 0;
  int64_t max_violating = 0;
  std::vector<Kept> kept;
};

}  // namespace

Outcome RunProfileCold(const Args& args) {
  sm::engine::RuntimeOptions options;
  options.num_threads = 1;
  Env env = Setup(options);
  Outcome out;
  out.metrics["setup_s"] = SecondsSinceStart();
  const OwnTruth own = BuildOwnTruth(env, out);
  sm::engine::Runtime& runtime = *env.runtime;

  std::array<Stream, kStreams> streams;
  for (Stream& stream : streams) {
    for (size_t v = 0; v < 2; ++v) {
      auto model = sm::detect::MakeDetector(env.videos[v].model);
      CheckOk(model.status(), "MakeDetector");
      stream.detectors[v] = std::make_unique<TimedDetector>(std::move(model).ValueOrDie());
    }
  }

  auto run_request = [&](int s, bool traced) {
    Stream& stream = streams[static_cast<size_t>(s)];
    const Request req = RequestAt(args.seed, s, stream.next);
    const Video& video = env.videos[req.video];
    TimedDetector& detector = *stream.detectors[req.video];
    const sm::query::QuerySpec spec = SpecFor(kAggregates[req.aggregate]);
    detector.set_timing(traced);
    detector.ResetLedger();
    const int64_t frames_before = detector.frames();
    const int64_t calls_before = detector.calls();
    const int64_t kernel_before = detector.kernel_ns();

    auto source = std::make_unique<sm::query::FrameOutputSource>(video.dataset(), detector,
                                                                 sm::video::ObjectClass::kCar);
    source->set_metrics_registry(env.registry.get());
    source->set_thread_pool(&runtime.executor());
    sm::core::Profiler profiler(*source, video.prior(), spec, sm::core::ProfilerOptions{});
    profiler.set_metrics_registry(env.registry.get());
    profiler.set_thread_pool(&runtime.executor());
    sm::stats::Rng rng(req.seed);
    const int64_t generate_start = NowNs();
    auto profile = profiler.Generate(video.grid, rng);
    if (!profile.ok()) {
      ++stream.failed;
      std::fprintf(stderr, "profile_cold: Generate failed: %s\n",
                   profile.status().ToString().c_str());
      ++stream.next;
      return;
    }

    // Exactly-once: every frame that reached the model is one memo miss, and
    // no key reached it twice.
    const int64_t frames = detector.frames() - frames_before;
    if (frames != source->model_invocations()) {
      stream.check_failures.push_back("profile_cold: detector frames != model_invocations()");
    }
    if (detector.duplicate_keys() != 0) {
      stream.check_failures.push_back(
          "profile_cold: a (frame, resolution, contrast) key reached the detector twice");
    }

    // Each point's bound against the benchmark's own ground truth.
    bool violated = false;
    const bool is_max = kAggregates[req.aggregate] == sm::query::AggregateFunction::kMax;
    for (const sm::core::ProfilePoint& point : profile->points) {
      const double realized =
          is_max ? OwnRankRelativeError(own.sorted_max[req.video], point.y_approx,
                                        own.y[req.video][req.aggregate])
                 : OwnRelativeError(point.y_approx, own.y[req.video][req.aggregate]);
      violated = violated || point.err_bound < realized;
    }
    if (is_max) {
      ++stream.max_profiles;
      stream.max_violating += violated ? 1 : 0;
    } else if (stream.next < kGateRequests) {
      ++stream.gate_profiles;
      stream.gate_violating += violated ? 1 : 0;
    }

    if (traced) {
      const sm::core::ProfilerReport& report = profiler.last_report();
      const int64_t correction_end =
          generate_start + static_cast<int64_t>(report.correction_seconds * 1e9);
      const double kernel_in_groups_ms =
          static_cast<double>(detector.kernel_ns_since(correction_end)) / 1e6;
      Layers& layers = stream.layers;
      layers.Add("detect.kernel_ns", static_cast<double>(detector.kernel_ns() - kernel_before));
      layers.Add("detect.frames", static_cast<double>(frames));
      layers.Add("detect.calls", static_cast<double>(detector.calls() - calls_before));
      layers.Add("query.model_invocations", static_cast<double>(source->model_invocations()));
      layers.Add("query.cache_hits", static_cast<double>(source->cache_hits()));
      layers.Add("core.correction_ms", report.correction_seconds * 1e3);
      layers.Add("core.groups_ms", report.groups_seconds * 1e3);
      layers.Add("core.points", static_cast<double>(profile->points.size()));
      layers.Add("core.profile_other_ms", (report.total_seconds - report.correction_seconds) * 1e3 -
                                              kernel_in_groups_ms);
    }
    if (s == 0 && stream.next < kReplayRequests) {
      stream.kept.push_back(Kept{req, std::move(source), std::move(*profile)});
    }
    ++stream.next;
  };

  auto run_slice = [&](double seconds, bool traced) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<int64_t> operations(kStreams, 0);
    std::vector<double> active_seconds(kStreams, 0.0);
    RunStreams(kStreams, [&](int s) {
      const int64_t start = NowNs();
      do {
        for (int64_t r = 0; r < kRound; ++r) run_request(s, traced);
        operations[static_cast<size_t>(s)] += kRound;
      } while (NowNs() < deadline || streams[static_cast<size_t>(s)].next < kGateRequests);
      active_seconds[static_cast<size_t>(s)] = static_cast<double>(NowNs() - start) / 1e9;
    });
    return StreamsSlice(operations, active_seconds);
  };

  if (!args.trace) {
    const Slice run = run_slice(args.seconds, false);
    out.metrics["requests_per_s"] = run.Rate();
  } else {
    const TraceSplit split = RunAlternating(args.seconds, *env.registry, run_slice);
    Layers layers;
    for (const Stream& stream : streams) layers.Merge(stream.layers);
    InitLayerMetrics(env, out.metrics);
    RegistryLayerMetrics(split.traced_delta, split.traced.operations, out.metrics);
    const double kernel_ns = layers.Sum("detect.kernel_ns");
    const double frames = layers.Sum("detect.frames");
    out.metrics["detect.kernel_ms"] = layers.Mean("detect.kernel_ns") / 1e6;
    out.metrics["detect.frames"] = layers.Mean("detect.frames");
    out.metrics["detect.calls"] = layers.Mean("detect.calls");
    out.metrics["detect.ns_per_frame"] = frames > 0 ? kernel_ns / frames : 0.0;
    const double invocations = layers.Mean("query.model_invocations");
    const double hits = layers.Mean("query.cache_hits");
    out.metrics["query.model_invocations"] = invocations;
    out.metrics["query.cache_hits"] = hits;
    out.metrics["query.hit_ratio"] = hits + invocations > 0 ? hits / (hits + invocations) : 0.0;
    for (const char* name :
         {"core.correction_ms", "core.groups_ms", "core.points", "core.profile_other_ms"}) {
      out.metrics[name] = layers.Mean(name);
    }
    out.metrics["trace.overhead_pct"] = split.OverheadPct();
  }

  int64_t gate_profiles = 0, gate_violating = 0, max_profiles = 0, max_violating = 0;
  for (Stream& stream : streams) {
    out.attempted += stream.next;
    out.failed += stream.failed;
    for (std::string& failure : stream.check_failures) out.check_failures.push_back(failure);
    gate_profiles += stream.gate_profiles;
    gate_violating += stream.gate_violating;
    max_profiles += stream.max_profiles;
    max_violating += stream.max_violating;
  }

  // Coverage gate over each stream's first kGateRequests requests
  // (AVG/SUM/COUNT). A profile fails when any of its points has a bound
  // below the realized error; the binomial acceptance test allows delta.
  out.Check(gate_violating <= BinomialCritical(gate_profiles, 0.05, kAcceptanceAlpha),
            "profile_cold: " + std::to_string(gate_violating) + " of " +
                std::to_string(gate_profiles) +
                " mean-family profiles have a point whose bound is below the realized error");

  // Replay the first requests on their now-warm memo at another executor
  // width: the profile must come back bit-identical with no model work.
  sm::util::ThreadPool pool(kReplayWidth);
  for (Kept& k : streams[0].kept) {
    const Video& video = env.videos[k.request.video];
    k.source->set_thread_pool(&pool);
    const int64_t invocations_before = k.source->model_invocations();
    sm::core::Profiler profiler(*k.source, video.prior(), SpecFor(kAggregates[k.request.aggregate]),
                                sm::core::ProfilerOptions{});
    profiler.set_thread_pool(&pool);
    sm::stats::Rng rng(k.request.seed);
    auto replay = profiler.Generate(video.grid, rng);
    out.Check(replay.ok() && sm::engine::ProfilesBitIdentical(k.profile, *replay),
              "profile_cold: warm replay at width 2 differs from the cold profile");
    out.Check(k.source->model_invocations() == invocations_before,
              "profile_cold: warm replay invoked the model");
  }
  std::fprintf(stderr,
               "profile_cold: %lld requests; mean-family gate %lld/%lld profiles with a point "
               "below its realized error; MAX %lld/%lld (not gated)\n",
               static_cast<long long>(out.attempted), static_cast<long long>(gate_violating),
               static_cast<long long>(gate_profiles), static_cast<long long>(max_violating),
               static_cast<long long>(max_profiles));
  return out;
}

}  // namespace perfbench
