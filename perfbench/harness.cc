#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "checks.h"
#include "core/candidate_design.h"
#include "detect/models.h"
#include "detect/registry.h"
#include "query/output_source.h"
#include "video/presets.h"

namespace perfbench {

namespace {

int64_t g_process_start_ns = 0;

double MsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e6; }

double HistogramSum(const sm::util::MetricsSnapshot& snap, const std::string& name,
                    int64_t* count) {
  for (const sm::util::HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) {
      if (count != nullptr) *count = h.count;
      return h.sum;
    }
  }
  if (count != nullptr) *count = 0;
  return 0.0;
}

struct VideoDesc {
  sm::video::ScenePreset preset;
  const char* detector;
};
constexpr std::array<VideoDesc, 2> kVideos = {
    VideoDesc{sm::video::ScenePreset::kUaDetrac, "yolov4"},
    VideoDesc{sm::video::ScenePreset::kNightStreet, "maskrcnn"}};

}  // namespace

sm::query::QuerySpec SpecFor(sm::query::AggregateFunction aggregate) {
  sm::query::QuerySpec spec;
  spec.aggregate = aggregate;
  return spec;
}

void MarkProcessStart() { g_process_start_ns = NowNs(); }

double SecondsSinceStart() { return static_cast<double>(NowNs() - g_process_start_ns) / 1e9; }

void CheckOk(const sm::util::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

void Layers::Merge(const Layers& other) {
  for (const auto& [name, tally] : other.tallies_) {
    Tally& mine = tallies_[name];
    mine.sum += tally.sum;
    mine.count += tally.count;
  }
}

double Layers::Mean(const std::string& name) const {
  auto it = tallies_.find(name);
  return it == tallies_.end() ? 0.0 : it->second.Mean();
}

double Layers::Sum(const std::string& name) const {
  auto it = tallies_.find(name);
  return it == tallies_.end() ? 0.0 : it->second.sum;
}

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

Env Setup(const sm::engine::RuntimeOptions& options) {
  Env env;
  env.registry = std::make_unique<sm::util::MetricsRegistry>();
  sm::engine::RuntimeOptions runtime_options = options;
  runtime_options.registry = env.registry.get();
  auto runtime = sm::engine::Runtime::Create(runtime_options);
  CheckOk(runtime.status(), "Runtime::Create");
  env.runtime = std::move(runtime).ValueOrDie();

  for (size_t v = 0; v < kVideos.size(); ++v) {
    Video& video = env.videos[v];
    int64_t start = NowNs();
    auto dataset = sm::video::MakePreset(kVideos[v].preset);
    CheckOk(dataset.status(), "MakePreset");
    auto owned_dataset = std::make_unique<sm::video::VideoDataset>(std::move(*dataset));
    env.video_build_ms += MsSince(start);

    video.model = kVideos[v].detector;
    auto model = sm::detect::MakeDetector(video.model);
    CheckOk(model.status(), "MakeDetector");
    auto detector = std::make_unique<TimedDetector>(std::move(model).ValueOrDie());
    video.detector = detector.get();

    // The prior is computed with YOLO (person) + MTCNN (face), as in the
    // paper's workloads.
    start = NowNs();
    sm::detect::SimYoloV4 person_detector;
    sm::detect::SimMtcnn face_detector;
    auto prior = sm::detect::ClassPriorIndex::Build(*owned_dataset, person_detector,
                                                    face_detector);
    CheckOk(prior.status(), "ClassPriorIndex::Build");
    env.prior_build_ms += MsSince(start);

    video.label = std::string(sm::video::ScenePresetName(kVideos[v].preset)) + "+" +
                  kVideos[v].detector;
    auto handle = env.runtime->AdoptWorkload(
        video.label, std::move(owned_dataset), std::move(detector),
        std::make_unique<sm::detect::ClassPriorIndex>(std::move(*prior)),
        sm::video::ObjectClass::kCar);
    CheckOk(handle.status(), "AdoptWorkload");
    video.handle = *handle;

    sm::core::CandidateGridOptions grid_options;
    grid_options.min_fraction = 0.01;
    grid_options.max_fraction = 0.10;
    grid_options.fraction_step = 0.01;
    grid_options.num_resolutions = 10;
    grid_options.include_class_combinations = true;
    auto grid = sm::core::BuildCandidateGrid(*video.detector, grid_options);
    CheckOk(grid.status(), "BuildCandidateGrid");
    video.grid = std::move(*grid);

    // Ground truth comes from a source of its own, so no workload memo
    // starts with the full-resolution column already filled.
    start = NowNs();
    sm::query::FrameOutputSource truth_source(video.dataset(), *video.detector,
                                              sm::video::ObjectClass::kCar);
    for (size_t a = 0; a < kAggregates.size(); ++a) {
      auto truth = sm::query::ComputeGroundTruth(truth_source, SpecFor(kAggregates[a]));
      CheckOk(truth.status(), "ComputeGroundTruth");
      video.truth[a] = std::move(*truth);
    }
    env.ground_truth_ms += MsSince(start);
  }
  return env;
}

OwnTruth BuildOwnTruth(const Env& env, Outcome& out) {
  OwnTruth own;
  for (size_t v = 0; v < env.videos.size(); ++v) {
    for (size_t a = 0; a < kAggregates.size(); ++a) {
      const sm::query::GroundTruth& gt = env.videos[v].truth[a];
      const double y = OwnAggregate(kAggregates[a], gt.outputs,
                                    SpecFor(kAggregates[a]).EffectiveQuantileR());
      own.y[v][a] = y;
      out.Check(std::fabs(y - gt.y_true) <= 1e-12 * std::max(1.0, std::fabs(y)),
                "ground truth: " + env.videos[v].label + " " +
                    sm::query::AggregateFunctionName(kAggregates[a]) +
                    " y_true differs from the benchmark's own aggregate");
    }
    own.sorted_max[v] = env.videos[v].truth[3].outputs;
    std::sort(own.sorted_max[v].begin(), own.sorted_max[v].end());
  }
  return own;
}

RegistryMark ReadRegistry(const sm::util::MetricsRegistry& registry) {
  const sm::util::MetricsSnapshot snap = registry.Snapshot();
  RegistryMark mark;
  mark.pool_tasks = snap.counter("thread_pool.tasks_run");
  mark.pool_task_seconds = HistogramSum(snap, "thread_pool.task.seconds", nullptr);
  mark.inflight_waits = snap.counter("output_source.inflight_waits");
  mark.miss_batch_frames = HistogramSum(snap, "output_source.miss_batch.frames", &mark.miss_batches);
  mark.admission_wait_seconds = HistogramSum(snap, "engine.admission.wait.seconds", nullptr);
  mark.profile_cache_hits = snap.counter("engine.profile_cache.hits");
  return mark;
}

Slice StreamsSlice(const std::vector<int64_t>& operations,
                   const std::vector<double>& active_seconds) {
  Slice slice;
  double rate = 0.0;
  for (size_t s = 0; s < operations.size(); ++s) {
    slice.operations += operations[s];
    rate += static_cast<double>(operations[s]) / active_seconds[s];
  }
  slice.seconds = static_cast<double>(slice.operations) / rate;
  return slice;
}

void InitLayerMetrics(const Env& env, std::map<std::string, double>& out) {
  for (const char* name :
       {"detect.kernel_ms", "detect.frames", "detect.calls", "detect.ns_per_frame",
        "query.model_invocations", "query.miss_batch_frames", "query.cache_hits",
        "query.hit_ratio", "query.inflight_waits", "query.rank_error_ms", "core.correction_ms",
        "core.groups_ms", "core.points", "core.profile_other_ms", "core.choose_ms",
        "core.estimate_ms", "degrade.view_ms", "stats.sample_ms", "baselines.estimate_ms",
        "engine.admission_wait_ms", "engine.profile_cache_hits", "engine.profile_ms",
        "engine.execute_ms", "util.pool_tasks", "util.pool_task_ms", "trace.overhead_pct"}) {
    out[name] = 0.0;
  }
  out["video.build_ms"] = env.video_build_ms;
  out["detect.prior_build_ms"] = env.prior_build_ms;
  out["query.ground_truth_ms"] = env.ground_truth_ms;
}

void AddDelta(const RegistryMark& begin, const RegistryMark& end, RegistryMark& sum) {
  sum.pool_tasks += end.pool_tasks - begin.pool_tasks;
  sum.pool_task_seconds += end.pool_task_seconds - begin.pool_task_seconds;
  sum.inflight_waits += end.inflight_waits - begin.inflight_waits;
  sum.miss_batches += end.miss_batches - begin.miss_batches;
  sum.miss_batch_frames += end.miss_batch_frames - begin.miss_batch_frames;
  sum.admission_wait_seconds += end.admission_wait_seconds - begin.admission_wait_seconds;
  sum.profile_cache_hits += end.profile_cache_hits - begin.profile_cache_hits;
}

void RegistryLayerMetrics(const RegistryMark& delta, int64_t operations,
                          std::map<std::string, double>& out) {
  const double ops = static_cast<double>(std::max<int64_t>(operations, 1));
  out["util.pool_tasks"] = static_cast<double>(delta.pool_tasks) / ops;
  out["util.pool_task_ms"] = delta.pool_task_seconds * 1e3 / ops;
  out["query.inflight_waits"] = static_cast<double>(delta.inflight_waits) / ops;
  out["query.miss_batch_frames"] =
      delta.miss_batches == 0
          ? 0.0
          : delta.miss_batch_frames / static_cast<double>(delta.miss_batches);
  out["engine.admission_wait_ms"] = delta.admission_wait_seconds * 1e3 / ops;
  out["engine.profile_cache_hits"] = static_cast<double>(delta.profile_cache_hits) / ops;
}

}  // namespace perfbench
