// Detector interface and the shared calibrated detection model.
//
// A simulated detector maps (frame, inference resolution, class) to a count
// of detections, exactly the quantity the paper's frame-level UDFs produce.
// Outputs are deterministic: the same frame at the same resolution always
// yields the same count (as with a real network), via stateless hashing of
// (dataset, frame, object track, resolution, model).
//
// The accuracy model has three calibrated ingredients:
//  * recall: a logistic curve in the *effective* object size
//      s_eff = apparent_size * (resolution / reference_resolution) * contrast,
//    so reducing resolution shrinks objects toward the miss region — the
//    systematic, one-directional bias that makes resolution reduction a
//    NON-RANDOM intervention in the paper's taxonomy;
//  * false positives: a small Poisson clutter term;
//  * model quirks: hooks for pathological behaviours such as the paper's
//    Figure 7/8 anomaly (YOLOv4 at 384x384 on night video).

#ifndef SMOKESCREEN_DETECT_DETECTOR_H_
#define SMOKESCREEN_DETECT_DETECTOR_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"
#include "video/dataset.h"
#include "video/types.h"

namespace smokescreen {
namespace detect {

/// The one contrast quantizer: contrast scales are cut to 1/4096 steps
/// wherever they key state — the detector's per-frame hash, the memo columns
/// of query::FrameOutputSource and the `contrast_q` field of the OutputStore
/// format, and the profiler's candidate groups. Scales within one step share
/// all of them.
inline int64_t QuantizeContrast(double contrast_scale) {
  return std::llround(contrast_scale * 4096.0);
}
/// The contrast scale a quantized value stands for (the inverse on the
/// 1/4096 grid).
inline double DequantizeContrast(int64_t contrast_q) {
  return static_cast<double>(contrast_q) / 4096.0;
}

/// Per-class logistic calibration of a detector at its confidence threshold.
struct ClassCalibration {
  /// Effective object size (pixels) at which recall is half the plateau.
  double s50 = 15.0;
  /// Logistic width (pixels); smaller = sharper size cutoff.
  double width = 4.0;
  /// Asymptotic recall for large, clear objects.
  double plateau = 0.98;
  /// Expected false positives per frame at full resolution.
  double fp_rate = 0.02;
};

class Detector {
 public:
  virtual ~Detector() = default;

  virtual const std::string& name() const = 0;
  /// Stable identity used in the determinism hash.
  virtual uint64_t model_id() const = 0;
  /// Largest supported inference resolution ("original" for this model).
  virtual int max_resolution() const = 0;
  /// Required resolution granularity (e.g. 64 for Mask R-CNN, 32 for YOLO).
  virtual int resolution_stride() const = 0;

  /// Checks resolution is positive, a multiple of the stride, and <= max.
  util::Status ValidateResolution(int resolution) const;

  /// Number of detections of `cls` in the given frame when inference runs at
  /// `resolution`. `contrast_scale` < 1 models appearance-degrading
  /// interventions (noise addition, lossy compression).
  virtual util::Result<int> CountDetections(const video::VideoDataset& dataset,
                                            int64_t frame_index, int resolution,
                                            video::ObjectClass cls,
                                            double contrast_scale = 1.0) const = 0;

  /// Batched counterpart of CountDetections: one invocation covers all of
  /// `frame_indices`, writing counts into `out` (same length, same order).
  /// Counts are bit-identical to per-frame CountDetections calls; batching
  /// only amortizes per-invocation setup. On ANY error `out` is left
  /// entirely untouched — implementations validate the whole request up
  /// front (or buffer), never exposing a partially written prefix. The
  /// default implementation loops over CountDetections into a temporary;
  /// calibrated models override it with a columnar kernel over the
  /// dataset's scene index.
  virtual util::Status CountBatch(const video::VideoDataset& dataset,
                                  std::span<const int64_t> frame_indices, int resolution,
                                  video::ObjectClass cls, double contrast_scale,
                                  std::span<int> out) const;
};

/// Base class implementing the calibrated recall/false-positive model.
class CalibratedDetector : public Detector {
 public:
  CalibratedDetector(std::string name, uint64_t model_id, int max_resolution,
                     int resolution_stride,
                     std::array<ClassCalibration, video::kNumObjectClasses> calibrations);

  const std::string& name() const override { return name_; }
  uint64_t model_id() const override { return model_id_; }
  int max_resolution() const override { return max_resolution_; }
  int resolution_stride() const override { return resolution_stride_; }

  util::Result<int> CountDetections(const video::VideoDataset& dataset, int64_t frame_index,
                                    int resolution, video::ObjectClass cls,
                                    double contrast_scale) const override;

  /// Columnar kernel: walks only the queried class's contiguous SoA column
  /// of the dataset's SceneIndex (never the AoS object lists), with all
  /// per-(resolution, class, contrast) constants hoisted to per-batch
  /// scalars and the (dataset, frame) hash prefix hoisted per frame via a
  /// resumable stats::HashStream. The recall sigmoid is evaluated over a
  /// flat tile so the surrounding arithmetic vectorizes; std::exp and the
  /// hash chain run in the scalar stream order, keeping every count
  /// BIT-IDENTICAL to per-frame CountDetections. Validates the resolution
  /// and every frame index before writing anything to `out`.
  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override;

  /// Recall of one object at the given resolution (exposed for tests and
  /// calibration plots).
  double ObjectRecall(const video::GtObject& obj, int resolution, int reference_resolution,
                      double contrast_scale) const;

 protected:
  /// Probability that a *detected* object is reported twice (NMS failure).
  /// Default 0; SimYoloV4 overrides this with its 384px night-scene quirk.
  virtual double DuplicateProbability(const video::Frame& frame, int resolution,
                                      video::ObjectClass cls) const;

  /// Batched counterpart: fills `out[i]` with DuplicateProbability for
  /// `frame_indices[i]`, value-identical to per-frame calls. The base
  /// implementation loops the per-frame virtual; a model whose duplicate
  /// term is a closed form over scene fields overrides it with a tight
  /// non-virtual loop over the scene index's flat columns, so the batch
  /// kernel's frame pass carries no per-frame indirect call.
  virtual void DuplicateProbabilityBatch(const video::VideoDataset& dataset,
                                         std::span<const int64_t> frame_indices, int resolution,
                                         video::ObjectClass cls, std::span<double> out) const;

 private:
  /// Per-frame counting core shared by the scalar and batched entry points,
  /// so both produce literally the same arithmetic (bit-identical counts).
  /// All frame-independent setup is passed in precomputed.
  int CountFrameImpl(const video::VideoDataset& dataset, const video::Frame& frame,
                     int resolution, video::ObjectClass cls, double contrast_scale,
                     const ClassCalibration& cal, uint64_t res_bits, uint64_t cls_bits,
                     uint64_t contrast_bits, double res_factor) const;

  /// Guard-banded lookup acceleration for the recall Bernoulli, built once
  /// per class at construction. The [0, s_detect_certain) range of effective
  /// object size is cut into kBands buckets; each stores CONSERVATIVE
  /// integer thresholds on the 53-bit uniform draw: draws below `sure_lo`
  /// are certainly below the bucket's minimum recall (detected), draws at or
  /// above `sure_hi` are certainly at or above its maximum recall (missed).
  /// Only draws inside the (padded) ambiguity band fall back to the exact
  /// std::exp logistic — so the decision is bit-identical to always
  /// evaluating the sigmoid, while the hot loop stays free of libm calls.
  /// Above s_detect_certain the computed logistic argument is <= -37, where
  /// 1.0 + exp(a) rounds to exactly 1.0 and recall == plateau exactly.
  struct RecallBands {
    static constexpr int kBands = 1024;
    bool usable = false;        // plateau in (0, 1) and finite geometry.
    double s_detect_certain = 0.0;
    double inv_band_width = 0.0;
    std::vector<uint64_t> sure_lo;  // (hash >> 11) <  sure_lo[b] => detected.
    std::vector<uint64_t> sure_hi;  // (hash >> 11) >= sure_hi[b] => missed.
  };
  static RecallBands BuildRecallBands(const ClassCalibration& cal);

  std::string name_;
  uint64_t model_id_;
  int max_resolution_;
  int resolution_stride_;
  std::array<ClassCalibration, video::kNumObjectClasses> calibrations_;
  std::array<RecallBands, video::kNumObjectClasses> recall_bands_;
};

}  // namespace detect
}  // namespace smokescreen

#endif  // SMOKESCREEN_DETECT_DETECTOR_H_
