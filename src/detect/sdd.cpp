#include "detect/sdd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "detect/fault_hook.hpp"
#include "image/ops.hpp"
#include "runtime/cancel.hpp"

namespace ffsva::detect {

const char* to_string(SddMetric m) {
  switch (m) {
    case SddMetric::kMse: return "MSE";
    case SddMetric::kNrmse: return "NRMSE";
    case SddMetric::kSad: return "SAD";
  }
  return "?";
}

namespace {

/// Feature sizes above this could overflow the int64 moment arithmetic
/// below (3 * 255^2 * N^2 must stay under 2^63 for N pixels per channel).
constexpr std::int64_t kMaxFeaturePixels = std::int64_t{1} << 22;

/// Per-channel integer moments of d = a - b over an interleaved image.
struct Moments {
  std::int64_t sum[3] = {0, 0, 0};  ///< Σd per channel.
  std::int64_t sq[3] = {0, 0, 0};   ///< Σd² per channel.
};

template <int C>
Moments moments(const std::uint8_t* a, const std::uint8_t* b, std::size_t pixels) {
  // 32-bit partials over blocks short enough not to overflow
  // (255^2 * 2^15 < 2^32), flushed to 64 bits: keeps the inner loop narrow.
  constexpr std::size_t kBlock = std::size_t{1} << 15;
  Moments m;
  for (std::size_t p0 = 0; p0 < pixels; p0 += kBlock) {
    const std::size_t p1 = std::min(pixels, p0 + kBlock);
    std::int32_t s[C] = {};
    std::uint32_t q[C] = {};
    for (std::size_t p = p0; p < p1; ++p) {
      for (int c = 0; c < C; ++c) {
        const int d = static_cast<int>(a[p * C + c]) - static_cast<int>(b[p * C + c]);
        s[c] += d;
        q[c] += static_cast<std::uint32_t>(d * d);
      }
    }
    for (int c = 0; c < C; ++c) {
      m.sum[c] += s[c];
      m.sq[c] += q[c];
    }
  }
  return m;
}

/// Σ_c Σ_i |n·d_i − Σd_c| with n pixels per channel: n times the absolute
/// deviation of d from its channel mean, in exact integers.
template <int C>
std::int64_t centered_abs_sum(const std::uint8_t* a, const std::uint8_t* b,
                              std::size_t pixels, const Moments& m) {
  const auto n = static_cast<std::int64_t>(pixels);
  std::int64_t acc = 0;
  for (int c = 0; c < C; ++c) {
    const std::int64_t mean_n = m.sum[c];
    for (std::size_t p = 0; p < pixels; ++p) {
      const std::int64_t d =
          static_cast<int>(a[p * C + c]) - static_cast<int>(b[p * C + c]);
      acc += std::abs(n * d - mean_n);
    }
  }
  return acc;
}

/// Gain-compensated distance: remove the per-channel mean frame-vs-
/// reference offset (global illumination / white balance) and measure what
/// is left (local content change). One integer pass gives exact moments:
/// Σ(d − mean)² = Σd² − (Σd)²/n per channel. SAD needs the mean first, so
/// it makes a second pass.
template <int C>
double gain_compensated(const image::Image& small, const image::Image& ref,
                        SddMetric metric) {
  const std::size_t pixels = small.size_bytes() / C;
  const auto n = static_cast<std::int64_t>(pixels);
  const Moments m = moments<C>(small.data(), ref.data(), pixels);
  const double total = static_cast<double>(small.size_bytes());
  if (metric == SddMetric::kSad) {
    const std::int64_t dev = centered_abs_sum<C>(small.data(), ref.data(), pixels, m);
    return static_cast<double>(dev) / static_cast<double>(n) / total;
  }
  std::int64_t num = 0;  // n * Σ_c Σ(d − mean_c)², exact.
  for (int c = 0; c < C; ++c) num += n * m.sq[c] - m.sum[c] * m.sum[c];
  const double acc = static_cast<double>(num) / static_cast<double>(n) / total;
  return metric == SddMetric::kNrmse ? std::sqrt(acc) / 255.0 : acc;
}

double raw_distance(const image::Image& small, const image::Image& ref,
                    SddMetric metric) {
  switch (metric) {
    case SddMetric::kMse: return image::mse(small, ref);
    case SddMetric::kNrmse: return image::nrmse(small, ref);
    case SddMetric::kSad: return image::sad(small, ref);
  }
  return 0.0;
}

}  // namespace

SddFilter::SddFilter(SddConfig config, const image::Image& reference_background)
    : config_(config),
      // Keep color: a chromatic object (a red car on gray asphalt) can be
      // luma-neutral and invisible to a grayscale difference.
      reference_(
          image::resize_bilinear(reference_background, config.width, config.height)),
      reference_gray_(image::to_gray(reference_)) {
  if (reference_.empty()) {
    throw std::invalid_argument("SddFilter: empty reference background");
  }
  if (static_cast<std::int64_t>(config.width) * config.height > kMaxFeaturePixels) {
    throw std::invalid_argument("SddFilter: feature size too large");
  }
}

double SddFilter::distance(const image::Image& frame) const {
  FaultHook::on_call(FaultStage::kSdd);
  runtime::check_cancel();
  // Thread-local staging, as in TYoloDetector::detect: one filter serves
  // every SDD worker, and a warm call (fixed frame geometry) allocates
  // nothing.
  static thread_local image::ResizePlan plan;
  static thread_local image::Image resized;
  static thread_local image::Image gray;
  const image::Image* small = &frame;
  if (frame.width() != config_.width || frame.height() != config_.height) {
    plan.ensure(frame.width(), frame.height(), config_.width, config_.height);
    image::resize_bilinear_into(frame, plan, resized);
    small = &resized;
  }
  if (small->channels() != reference_.channels()) {
    // Mixed gray/color inputs: fall back to luma on both sides.
    if (small->channels() != 1) {
      image::to_gray_into(*small, gray);
      small = &gray;
    }
    return raw_distance(*small, reference_gray_, config_.metric);
  }
  if (!config_.gain_compensate) return raw_distance(*small, reference_, config_.metric);
  return small->channels() == 3
             ? gain_compensated<3>(*small, reference_, config_.metric)
             : gain_compensated<1>(*small, reference_, config_.metric);
}

double SddFilter::calibrate(const std::vector<double>& distances,
                            const std::vector<bool>& is_target) {
  if (distances.size() != is_target.size() || distances.empty()) {
    throw std::invalid_argument("SddFilter::calibrate: bad inputs");
  }
  std::vector<double> target_d;
  std::vector<double> bg_d;
  for (std::size_t i = 0; i < distances.size(); ++i) {
    (is_target[i] ? target_d : bg_d).push_back(distances[i]);
  }
  if (target_d.empty()) {
    // No targets in the calibration window: be conservative, pass almost
    // everything above the noise floor of the observed distances.
    std::vector<double> all = distances;
    std::sort(all.begin(), all.end());
    config_.delta_diff = all[all.size() / 2] * 1.5;
    return config_.delta_diff;
  }
  std::sort(target_d.begin(), target_d.end());
  // Largest threshold keeping FN rate within budget: the fn_budget-quantile
  // of target distances (frames below the threshold would be missed).
  const auto idx = static_cast<std::size_t>(config_.fn_budget *
                                            static_cast<double>(target_d.size()));
  const double quantile = target_d[std::min(idx, target_d.size() - 1)];
  // Relaxed filtering: sit slightly below the selected threshold.
  double delta = quantile * config_.relax_factor;
  // ...and never above the background-anchored bound: beyond it we would be
  // betting that no future target frame is weaker than the weakest one the
  // calibration window happened to contain.
  if (!bg_d.empty()) {
    std::sort(bg_d.begin(), bg_d.end());
    const auto bg_idx = static_cast<std::size_t>(config_.bg_quantile *
                                                 static_cast<double>(bg_d.size() - 1));
    const double bg_bound = bg_d[bg_idx] * config_.bg_margin;
    delta = std::min(delta, std::max(bg_bound, 1e-9));
  }
  config_.delta_diff = delta;
  return config_.delta_diff;
}

double SddFilter::calibrate_on(const std::vector<video::Frame>& frames,
                               video::ObjectClass target) {
  std::vector<double> d;
  std::vector<bool> label;
  d.reserve(frames.size());
  label.reserve(frames.size());
  for (const auto& f : frames) {
    d.push_back(distance(f.image));
    label.push_back(f.gt.any_target(target));
  }
  return calibrate(d, label);
}

}  // namespace ffsva::detect
