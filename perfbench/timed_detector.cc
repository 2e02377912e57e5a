#include "timed_detector.h"

#include <bit>
#include <chrono>

namespace perfbench {

namespace sm = smokescreen;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sm::util::Result<int> TimedDetector::CountDetections(const sm::video::VideoDataset& dataset,
                                                     int64_t frame_index, int resolution,
                                                     sm::video::ObjectClass cls,
                                                     double contrast_scale) const {
  const bool timed = timing_.load(std::memory_order_relaxed);
  const int64_t start = timed ? NowNs() : 0;
  auto count = inner_->CountDetections(dataset, frame_index, resolution, cls, contrast_scale);
  const int64_t dur = timed ? NowNs() - start : 0;
  if (count.ok()) {
    const int64_t frame[1] = {frame_index};
    Record(frame, resolution, contrast_scale, start, timed ? dur : -1);
  }
  return count;
}

sm::util::Status TimedDetector::CountBatch(const sm::video::VideoDataset& dataset,
                                           std::span<const int64_t> frame_indices,
                                           int resolution, sm::video::ObjectClass cls,
                                           double contrast_scale, std::span<int> out) const {
  const bool timed = timing_.load(std::memory_order_relaxed);
  const int64_t start = timed ? NowNs() : 0;
  sm::util::Status status =
      inner_->CountBatch(dataset, frame_indices, resolution, cls, contrast_scale, out);
  const int64_t dur = timed ? NowNs() - start : 0;
  if (status.ok()) Record(frame_indices, resolution, contrast_scale, start, timed ? dur : -1);
  return status;
}

void TimedDetector::Record(std::span<const int64_t> frame_indices, int resolution,
                           double contrast_scale, int64_t start_ns, int64_t dur_ns) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  frames_.fetch_add(static_cast<int64_t>(frame_indices.size()), std::memory_order_relaxed);
  if (dur_ns >= 0) kernel_ns_.fetch_add(dur_ns, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(ledger_mu_);
  if (dur_ns >= 0) timed_calls_.emplace_back(start_ns, dur_ns);
  std::vector<uint64_t>& bits =
      seen_[{resolution, std::bit_cast<uint64_t>(contrast_scale)}];
  for (int64_t frame : frame_indices) {
    const size_t word = static_cast<size_t>(frame) >> 6;
    if (word >= bits.size()) bits.resize(word + 1, 0);
    const uint64_t mask = uint64_t{1} << (static_cast<uint64_t>(frame) & 63);
    if (bits[word] & mask) ++duplicates_;
    bits[word] |= mask;
  }
}

void TimedDetector::ResetLedger() {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  seen_.clear();
  duplicates_ = 0;
  timed_calls_.clear();
}

int64_t TimedDetector::kernel_ns_since(int64_t since_ns) const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  int64_t total = 0;
  for (const auto& [start, dur] : timed_calls_) {
    if (start >= since_ns) total += dur;
  }
  return total;
}

int64_t TimedDetector::duplicate_keys() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  return duplicates_;
}

}  // namespace perfbench
