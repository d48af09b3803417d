#include "workloads/face_detect.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace xartrek::workloads {

IntegralImage::IntegralImage(const GrayImage& image)
    : width_(image.width()), height_(image.height()) {
  table_.assign((static_cast<std::size_t>(width_) + 1) *
                    (static_cast<std::size_t>(height_) + 1),
                0);
  for (int y = 1; y <= height_; ++y) {
    std::uint64_t row = 0;
    for (int x = 1; x <= width_; ++x) {
      row += image.at(x - 1, y - 1);
      table_[static_cast<std::size_t>(y) *
                 (static_cast<std::size_t>(width_) + 1) +
             static_cast<std::size_t>(x)] = tab(x, y - 1) + row;
    }
  }
}

std::uint64_t IntegralImage::rect_sum(int x, int y, int w, int h) const {
  XAR_EXPECTS(x >= 0 && y >= 0 && w > 0 && h > 0);
  XAR_EXPECTS(x + w <= width_ && y + h <= height_);
  return tab(x + w, y + h) + tab(x, y) - tab(x + w, y) - tab(x, y + h);
}

double IntegralImage::rect_mean(int x, int y, int w, int h) const {
  return static_cast<double>(rect_sum(x, y, w, h)) /
         (static_cast<double>(w) * static_cast<double>(h));
}

Cascade Cascade::default_frontal() {
  // Layout constants mirror make_scene: eye band rows 6..10 of 24
  // (25%-42%), mouth band rows 16..20 (67%-83%).  Rectangle A is the
  // bright region, B the dark one; thresholds leave margin for the
  // generator's noise.
  Cascade c;
  c.base_window = 24;
  // Stage 1 -- cheapest, highest rejection: forehead brighter than eyes.
  c.stages.push_back(CascadeStage{{
      HaarFeature{/*A=*/0, 0, 24, 6, /*B=*/0, 6, 24, 4, /*thr=*/0.15},
  }});
  // Stage 2: cheeks brighter than eyes, cheeks brighter than mouth.
  c.stages.push_back(CascadeStage{{
      HaarFeature{0, 10, 24, 6, 0, 6, 24, 4, 0.15},
      HaarFeature{0, 10, 24, 6, 0, 16, 24, 4, 0.10},
  }});
  // Stage 3: chin brighter than mouth; eye band darker than whole face
  // average (guards against uniform bright blobs).
  c.stages.push_back(CascadeStage{{
      HaarFeature{0, 20, 24, 4, 0, 16, 24, 4, 0.10},
      HaarFeature{0, 0, 24, 24, 0, 6, 24, 4, 0.08},
  }});
  return c;
}

double detection_iou(const Detection& a, const Detection& b) {
  const int x1 = std::max(a.x, b.x);
  const int y1 = std::max(a.y, b.y);
  const int x2 = std::min(a.x + a.size, b.x + b.size);
  const int y2 = std::min(a.y + a.size, b.y + b.size);
  const double inter = std::max(0, x2 - x1) * std::max(0, y2 - y1);
  const double uni = static_cast<double>(a.size) * a.size +
                     static_cast<double>(b.size) * b.size - inter;
  return uni <= 0.0 ? 0.0 : inter / uni;
}

std::vector<Detection> non_max_suppress(std::vector<Detection> detections,
                                        double iou_threshold) {
  std::sort(detections.begin(), detections.end(),
            [](const Detection& a, const Detection& b) {
              return a.score > b.score;
            });
  std::vector<Detection> kept;
  for (const auto& d : detections) {
    bool suppressed = false;
    for (const auto& k : kept) {
      if (detection_iou(d, k) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

namespace {
/// Evaluate one feature on a `w`-pixel window at (wx, wy) scaled by
/// `scale`.  Scaled rectangles are clamped to the window: rounding can
/// otherwise overshoot the integer window size by a pixel and fall off
/// the image at the right/bottom edges.  Returns the margin above
/// threshold; negative means failure.
[[nodiscard]] double feature_margin(const IntegralImage& ii,
                                    const HaarFeature& f, int wx, int wy,
                                    int w, double scale) {
  auto sx = [&](int v) { return static_cast<int>(std::lround(v * scale)); };
  auto rect_mean = [&](int rx, int ry, int rw, int rh) {
    rx = std::min(rx, w - 1);
    ry = std::min(ry, w - 1);
    rw = std::max(1, std::min(rw, w - rx));
    rh = std::max(1, std::min(rh, w - ry));
    return ii.rect_mean(wx + rx, wy + ry, rw, rh);
  };
  const double mean_a =
      rect_mean(sx(f.ax), sx(f.ay), std::max(1, sx(f.aw)),
                std::max(1, sx(f.ah)));
  const double mean_b =
      rect_mean(sx(f.bx), sx(f.by), std::max(1, sx(f.bw)),
                std::max(1, sx(f.bh)));
  const double value = (mean_a - mean_b) / 255.0;
  return value - f.threshold;
}
}  // namespace

std::vector<Detection> detect_faces(const GrayImage& image,
                                    const Cascade& cascade,
                                    const DetectParams& params) {
  XAR_EXPECTS(params.scale_step > 1.0);
  XAR_EXPECTS(params.min_window >= cascade.base_window);
  const IntegralImage ii(image);
  std::vector<Detection> raw;

  for (double window = params.min_window;
       window <= std::min(image.width(), image.height());
       window *= params.scale_step) {
    const double scale = window / cascade.base_window;
    const int w = static_cast<int>(window);
    const int step = std::max(
        1, static_cast<int>(std::lround(window * params.step_fraction)));
    for (int wy = 0; wy + w <= image.height(); wy += step) {
      for (int wx = 0; wx + w <= image.width(); wx += step) {
        double score = 0.0;
        bool alive = true;
        for (const auto& stage : cascade.stages) {
          for (const auto& f : stage.features) {
            const double margin = feature_margin(ii, f, wx, wy, w, scale);
            if (margin < 0.0) {
              alive = false;
              break;
            }
            score += margin;
          }
          if (!alive) break;  // cascade early exit
        }
        if (alive) raw.push_back(Detection{wx, wy, w, score});
      }
    }
  }
  return non_max_suppress(std::move(raw), params.nms_iou);
}

}  // namespace xartrek::workloads
