// TimedDetector: a detect::Detector decorator that counts (and, when timing
// is on, times) every batched model invocation, and keeps a ledger of the
// (frame, resolution, contrast) keys that reached the model so the
// exactly-once invariant can be checked from outside the library.
//
// CountBatch delegates to the wrapped detector's own CountBatch, so the
// columnar kernel stays in use; CountDetections delegates likewise.

#ifndef SMOKESCREEN_PERFBENCH_TIMED_DETECTOR_H_
#define SMOKESCREEN_PERFBENCH_TIMED_DETECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "detect/detector.h"

namespace perfbench {

class TimedDetector : public smokescreen::detect::Detector {
 public:
  explicit TimedDetector(std::unique_ptr<smokescreen::detect::Detector> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  uint64_t model_id() const override { return inner_->model_id(); }
  int max_resolution() const override { return inner_->max_resolution(); }
  int resolution_stride() const override { return inner_->resolution_stride(); }

  smokescreen::util::Result<int> CountDetections(const smokescreen::video::VideoDataset& dataset,
                                                 int64_t frame_index, int resolution,
                                                 smokescreen::video::ObjectClass cls,
                                                 double contrast_scale) const override;
  smokescreen::util::Status CountBatch(const smokescreen::video::VideoDataset& dataset,
                                       std::span<const int64_t> frame_indices, int resolution,
                                       smokescreen::video::ObjectClass cls, double contrast_scale,
                                       std::span<int> out) const override;

  /// Timing costs two clock reads per call; counting is always on.
  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  /// Starts a fresh key ledger (used once per cold memo).
  void ResetLedger();

  int64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  int64_t frames() const { return frames_.load(std::memory_order_relaxed); }
  int64_t kernel_ns() const { return kernel_ns_.load(std::memory_order_relaxed); }
  /// Kernel time of calls that started at or after `since_ns` (steady clock).
  int64_t kernel_ns_since(int64_t since_ns) const;
  /// Keys that reached the model more than once since ResetLedger().
  int64_t duplicate_keys() const;

 private:
  void Record(std::span<const int64_t> frame_indices, int resolution, double contrast_scale,
              int64_t start_ns, int64_t dur_ns) const;

  std::unique_ptr<smokescreen::detect::Detector> inner_;
  std::atomic<bool> timing_{false};
  mutable std::atomic<int64_t> calls_{0};
  mutable std::atomic<int64_t> frames_{0};
  mutable std::atomic<int64_t> kernel_ns_{0};

  mutable std::mutex ledger_mu_;
  /// One bitmap of seen frames per (resolution, contrast bits).
  mutable std::map<std::pair<int, uint64_t>, std::vector<uint64_t>> seen_;
  mutable int64_t duplicates_ = 0;
  /// (start, duration) of each timed call since ResetLedger().
  mutable std::vector<std::pair<int64_t, int64_t>> timed_calls_;
};

/// Nanoseconds on the steady clock (the clock every span in the benchmark uses).
int64_t NowNs();

}  // namespace perfbench

#endif  // SMOKESCREEN_PERFBENCH_TIMED_DETECTOR_H_
