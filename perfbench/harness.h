// Shared pieces of the end-to-end benchmark: command-line arguments, the
// common set-up (runtime, two videos with their detectors and priors, the
// candidate grid and the ground truths), the per-layer span sums and the
// result every workload hands back to main().
//
// Everything here drives the library through its public headers only.

#ifndef SMOKESCREEN_PERFBENCH_HARNESS_H_
#define SMOKESCREEN_PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "degrade/intervention.h"
#include "detect/class_prior_index.h"
#include "engine/runtime.h"
#include "query/executor.h"
#include "query/query_spec.h"
#include "timed_detector.h"
#include "util/metrics.h"

namespace perfbench {

namespace sm = smokescreen;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// The four aggregates every workload rotates through, in rotation order.
constexpr std::array<sm::query::AggregateFunction, 4> kAggregates = {
    sm::query::AggregateFunction::kAvg, sm::query::AggregateFunction::kSum,
    sm::query::AggregateFunction::kCount, sm::query::AggregateFunction::kMax};

sm::query::QuerySpec SpecFor(sm::query::AggregateFunction aggregate);

/// One (video, detector) pair: ua-detrac+yolov4 or night-street+maskrcnn.
struct Video {
  std::string label;
  /// Registry name of the detector (detect::MakeDetector).
  std::string model;
  /// Adopted into the runtime; owns the dataset, the decorated detector and
  /// the prior. Its shared source is the memo serve_warm serves from.
  sm::engine::WorkloadHandle handle;
  TimedDetector* detector = nullptr;  // Owned by `handle`.
  /// The §3.3.2 grid: fractions 0.01..0.10 x 10 resolutions x 4 class sets.
  std::vector<sm::degrade::InterventionSet> grid;
  /// Full-resolution ground truth per entry of kAggregates.
  std::array<sm::query::GroundTruth, 4> truth;

  const sm::video::VideoDataset& dataset() const { return handle->dataset(); }
  const sm::detect::ClassPriorIndex& prior() const { return handle->prior(); }
};

/// Sum and count of one named span or per-operation quantity.
struct Tally {
  double sum = 0.0;
  int64_t count = 0;
  void Add(double value) {
    sum += value;
    ++count;
  }
  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Per-thread span sums, merged after the threads join.
class Layers {
 public:
  void Add(const std::string& name, double value) { tallies_[name].Add(value); }
  void Merge(const Layers& other);
  double Mean(const std::string& name) const;
  double Sum(const std::string& name) const;

 private:
  std::map<std::string, Tally> tallies_;
};

/// Adds the milliseconds its scope takes to `layers` under `name`. Reads the
/// clock only when `on` (a traced slice), so untraced runs pay nothing.
class Span {
 public:
  Span(bool on, Layers& layers, const char* name)
      : on_(on), layers_(layers), name_(name), start_(on ? NowNs() : 0) {}
  ~Span() {
    if (on_) layers_.Add(name_, static_cast<double>(NowNs() - start_) / 1e6);
  }
  /// Records nothing for this scope.
  void Discard() { on_ = false; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  Layers& layers_;
  const char* name_;
  int64_t start_;
};

struct Env {
  std::unique_ptr<sm::util::MetricsRegistry> registry;
  std::unique_ptr<sm::engine::Runtime> runtime;
  std::array<Video, 2> videos;
  /// Set-up spans, milliseconds.
  double video_build_ms = 0.0;
  double prior_build_ms = 0.0;
  double ground_truth_ms = 0.0;
};

/// Builds the runtime, both videos, priors, grids and ground truths.
/// Exits the process with a message on any library error.
Env Setup(const sm::engine::RuntimeOptions& options);

/// Records the process start (first thing main() does) and reads the time
/// since; setup_s is one cold set-up measured this way.
void MarkProcessStart();
double SecondsSinceStart();

/// Aborts the run (exit code 1, no result line) when a library call fails
/// outside the measured operations.
void CheckOk(const sm::util::Status& status, const char* what);

/// What a workload hands back: operation accounting, check failures and
/// every metric of the mode it ran in.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;

  void Check(bool ok, const std::string& what);
};

/// The benchmark's own ground truth, from the full-resolution outputs: its
/// own aggregate per [video][aggregate] and a sorted copy of the MAX outputs
/// for rank errors. Building it checks every GroundTruth::y_true against it.
struct OwnTruth {
  std::array<std::array<double, 4>, 2> y{};
  std::array<std::vector<double>, 2> sorted_max;
};
OwnTruth BuildOwnTruth(const Env& env, Outcome& out);

/// Registry readings at a phase boundary.
struct RegistryMark {
  int64_t pool_tasks = 0;
  double pool_task_seconds = 0.0;
  int64_t inflight_waits = 0;
  int64_t miss_batches = 0;
  double miss_batch_frames = 0.0;
  double admission_wait_seconds = 0.0;
  int64_t profile_cache_hits = 0;
};
RegistryMark ReadRegistry(const sm::util::MetricsRegistry& registry);
/// Adds the change from `begin` to `end` into `sum`.
void AddDelta(const RegistryMark& begin, const RegistryMark& end, RegistryMark& sum);

/// Operations a stretch of a run completed, and the seconds they took (for
/// a closed loop of several clients: operations over the summed rate).
struct Slice {
  int64_t operations = 0;
  double seconds = 0.0;
  double Rate() const { return static_cast<double>(operations) / seconds; }
};

/// Runs body(0..n-1) concurrently, stream 0 on the calling thread, and
/// joins every thread before returning.
template <typename Body>
void RunStreams(int n, Body&& body) {
  std::vector<std::thread> threads;
  for (int s = 1; s < n; ++s) threads.emplace_back([&body, s] { body(s); });
  body(0);
  for (std::thread& thread : threads) thread.join();
}

/// The slice of `n` concurrent streams, each of which completed
/// operations[s] in active_seconds[s]: the rate is the sum of the streams'
/// own rates, since streams end their last round at different moments.
Slice StreamsSlice(const std::vector<int64_t>& operations,
                   const std::vector<double>& active_seconds);

/// A traced run alternates untraced and traced slices of equal length, so
/// drift over the run (warming caches, a neighbour's load) falls on both
/// sides alike; the rate ratio of the two sides is the tracing overhead.
inline constexpr int kTraceSlices = 10;
struct TraceSplit {
  Slice plain;
  Slice traced;
  /// Registry change summed over the traced slices.
  RegistryMark traced_delta;
  double OverheadPct() const { return (plain.Rate() / traced.Rate() - 1.0) * 100.0; }
};

template <typename RunSlice>
TraceSplit RunAlternating(double seconds, const sm::util::MetricsRegistry& registry,
                          RunSlice&& run_slice) {
  TraceSplit split;
  for (int i = 0; i < kTraceSlices; ++i) {
    const bool traced = i % 2 == 1;
    const RegistryMark begin = ReadRegistry(registry);
    const Slice slice = run_slice(seconds / kTraceSlices, traced);
    Slice& side = traced ? split.traced : split.plain;
    side.operations += slice.operations;
    side.seconds += slice.seconds;
    if (traced) AddDelta(begin, ReadRegistry(registry), split.traced_delta);
  }
  return split;
}

/// Puts the set-up spans and zeroes for every layer metric into `out`, so a
/// traced run names every per-layer metric on every workload.
void InitLayerMetrics(const Env& env, std::map<std::string, double>& out);

/// The registry-derived layer metrics of `delta`, per operation.
void RegistryLayerMetrics(const RegistryMark& delta, int64_t operations,
                          std::map<std::string, double>& out);

Outcome RunProfileCold(const Args& args);
Outcome RunServeWarm(const Args& args);
Outcome RunCoverageAudit(const Args& args);

}  // namespace perfbench

#endif  // SMOKESCREEN_PERFBENCH_HARNESS_H_
