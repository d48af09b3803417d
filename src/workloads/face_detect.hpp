// Viola-Jones-style face detection.
//
// Follows the Rosetta `face-detection` benchmark (the paper's
// FaceDet320/FaceDet640 workloads): an integral image feeds a cascade of
// two-rectangle Haar-like contrast features evaluated over a sliding
// 24x24 base window at multiple scales; windows surviving every stage
// are detections, cleaned up by non-maximum suppression.  The default
// cascade encodes the canonical frontal-face layout (dark eye band, dark
// mouth band on bright skin) that the synthetic scene generator plants,
// so recall/precision are testable against ground truth.
//
// The whole of `detect_faces` is the "selected function" that Xar-Trek
// migrates: dense rectangle sums pipeline beautifully on an FPGA, which
// is why the paper's larger image wins there (Table 1, FaceDet640).
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/image.hpp"

namespace xartrek::workloads {

/// Summed-area table with O(1) rectangle sums.
class IntegralImage {
 public:
  explicit IntegralImage(const GrayImage& image);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  /// Sum of pixels in [x, x+w) x [y, y+h); the rectangle must lie within
  /// the image.
  [[nodiscard]] std::uint64_t rect_sum(int x, int y, int w, int h) const;

  /// Mean pixel value of the same rectangle.
  [[nodiscard]] double rect_mean(int x, int y, int w, int h) const;

 private:
  [[nodiscard]] std::uint64_t tab(int x, int y) const {
    return table_[static_cast<std::size_t>(y) *
                      (static_cast<std::size_t>(width_) + 1) +
                  static_cast<std::size_t>(x)];
  }
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint64_t> table_;  // (w+1) x (h+1)
};

/// A two-rectangle contrast feature in base-window (24x24) coordinates:
/// value = (mean(rect A) - mean(rect B)) / 255, in [-1, 1].
struct HaarFeature {
  int ax = 0, ay = 0, aw = 0, ah = 0;  ///< rectangle A (expected brighter)
  int bx = 0, by = 0, bw = 0, bh = 0;  ///< rectangle B (expected darker)
  double threshold = 0.0;              ///< pass when value >= threshold
};

/// One cascade stage: every feature must pass (margins accumulate into
/// the detection score).
struct CascadeStage {
  std::vector<HaarFeature> features;
};

/// A detection cascade over a square base window.
struct Cascade {
  int base_window = 24;
  std::vector<CascadeStage> stages;

  /// The handcrafted frontal-face cascade matched to make_scene's layout.
  [[nodiscard]] static Cascade default_frontal();
};

/// One detected face.
struct Detection {
  int x = 0;
  int y = 0;
  int size = 0;
  double score = 0.0;
};

/// Scan parameters.
struct DetectParams {
  double scale_step = 1.25;  ///< geometric window growth
  int min_window = 24;
  double step_fraction = 0.08;  ///< slide step as a fraction of window
  double nms_iou = 0.3;
};

/// Intersection-over-union of two square detections.
[[nodiscard]] double detection_iou(const Detection& a, const Detection& b);

/// Greedy non-maximum suppression (highest score wins).
[[nodiscard]] std::vector<Detection> non_max_suppress(
    std::vector<Detection> detections, double iou_threshold);

/// The selected function: multi-scale cascade scan + NMS.
[[nodiscard]] std::vector<Detection> detect_faces(
    const GrayImage& image, const Cascade& cascade = Cascade::default_frontal(),
    const DetectParams& params = {});

}  // namespace xartrek::workloads
