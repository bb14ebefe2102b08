// SDD — stream-specialized difference detector (paper Section 3.2.1).
//
// Resizes each frame to a fixed low resolution, keeping color, and
// compares against a per-stream reference background image with one of
// MSE / NRMSE / SAD. A frame whose distance exceeds delta_diff shows "an
// obvious content change" and passes; otherwise it is a background frame
// and is filtered out.
//
// calibrate() implements the paper's threshold selection (Section 4.1):
// given labeled frames it picks the largest delta_diff whose false-negative
// rate on target frames stays within a budget, then relaxes it slightly —
// "set the real filtering threshold slightly below the target threshold"
// (Section 3.3) — so downstream filters get a second chance at borderline
// frames.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"
#include "video/frame.hpp"

namespace ffsva::detect {

enum class SddMetric : std::uint8_t { kMse = 0, kNrmse = 1, kSad = 2 };

const char* to_string(SddMetric m);

struct SddConfig {
  int width = 100;                 ///< SDD feature size (100x100, Sec. 3.2.1).
  int height = 100;
  SddMetric metric = SddMetric::kMse;
  double delta_diff = 50.0;        ///< Pass if distance > delta_diff.
  double relax_factor = 0.9;       ///< Relaxed filtering (Sec. 3.3).
  double fn_budget = 0.005;        ///< Calibration FN budget on target frames.
  /// Calibration also bounds delta by the background-distance distribution:
  /// delta <= bg_margin * quantile(non-target distances, bg_quantile). The
  /// FN-budget rule alone picks the most aggressive delta the calibration
  /// window permits, which over-filters target frames the window never
  /// showed (small distant objects); anchoring to the background statistics
  /// keeps the threshold near the noise floor instead.
  double bg_quantile = 0.90;
  double bg_margin = 1.15;
  /// Subtract the mean frame-vs-reference offset before measuring distance.
  /// Global illumination drift ("weather, light intensity, etc. can all
  /// contribute to the value of MSE", Section 3.2.1) otherwise dominates
  /// the metric and forces delta_diff so high that small single objects
  /// captured at a different lighting phase than calibration slip under it.
  bool gain_compensate = true;
};

class SddFilter {
 public:
  SddFilter(SddConfig config, const image::Image& reference_background);

  /// Distance of this frame to the reference, after the resize to the
  /// feature size. Thread-safe; a warm call (fixed frame geometry)
  /// allocates nothing.
  double distance(const image::Image& frame) const;

  /// True if the frame passes (content changed), false if filtered out.
  bool pass(const image::Image& frame) const {
    return distance(frame) > config_.delta_diff;
  }

  /// Threshold selection from labeled examples. `distances` and
  /// `is_target` are parallel; chooses delta_diff and returns it.
  double calibrate(const std::vector<double>& distances,
                   const std::vector<bool>& is_target);

  /// Convenience: compute distances for frames, then calibrate.
  double calibrate_on(const std::vector<video::Frame>& frames,
                      video::ObjectClass target);

  const SddConfig& config() const { return config_; }
  void set_delta(double d) { config_.delta_diff = d; }

 private:
  SddConfig config_;
  image::Image reference_;       ///< Color kept, at SDD feature size.
  image::Image reference_gray_;  ///< Luma of reference_, for mixed inputs.
};

}  // namespace ffsva::detect
