#include "detect/sdd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "image/draw.hpp"
#include "image/ops.hpp"
#include "video/profiles.hpp"

namespace ffsva::detect {
namespace {

image::Image flat(std::uint8_t v) { return image::Image(64, 64, 3, v); }

TEST(SddFilter, EmptyReferenceThrows) {
  EXPECT_THROW(SddFilter(SddConfig{}, image::Image{}), std::invalid_argument);
}

TEST(SddFilter, IdenticalFrameHasZeroDistance) {
  const auto bg = flat(90);
  SddFilter sdd(SddConfig{}, bg);
  EXPECT_NEAR(sdd.distance(bg), 0.0, 1e-9);
  EXPECT_FALSE(sdd.pass(bg));
}

TEST(SddFilter, ObjectRaisesDistance) {
  const auto bg = flat(90);
  auto frame = bg;
  image::fill_rect(frame, image::Box{10, 10, 40, 30}, image::Rgb{230, 40, 40});
  SddConfig cfg;
  cfg.delta_diff = 5.0;
  SddFilter sdd(cfg, bg);
  EXPECT_GT(sdd.distance(frame), 5.0);
  EXPECT_TRUE(sdd.pass(frame));
}

TEST(SddFilter, MetricsAgreeOnOrdering) {
  const auto bg = flat(90);
  auto small_change = bg;
  image::fill_rect(small_change, image::Box{0, 0, 8, 8}, image::Rgb{140, 140, 140});
  auto big_change = bg;
  image::fill_rect(big_change, image::Box{0, 0, 40, 40}, image::Rgb{230, 230, 230});
  for (SddMetric m : {SddMetric::kMse, SddMetric::kNrmse, SddMetric::kSad}) {
    SddConfig cfg;
    cfg.metric = m;
    SddFilter sdd(cfg, bg);
    EXPECT_LT(sdd.distance(small_change), sdd.distance(big_change))
        << to_string(m);
  }
}

TEST(SddFilter, NrmseIsNormalized) {
  const auto bg = flat(0);
  const auto white = flat(255);
  SddConfig cfg;
  cfg.metric = SddMetric::kNrmse;
  cfg.gain_compensate = false;  // measure the raw global change
  SddFilter sdd(cfg, bg);
  EXPECT_NEAR(sdd.distance(white), 1.0, 1e-6);
}

TEST(SddFilter, GainCompensationIgnoresGlobalLighting) {
  const auto bg = flat(100);
  // A globally brightened frame is "the same scene under other light".
  auto brighter = bg;
  image::apply_gain(brighter, 1.2);
  // The same brightening plus a real object.
  auto with_object = brighter;
  image::fill_rect(with_object, image::Box{10, 10, 34, 26}, image::Rgb{230, 40, 40});

  SddConfig comp;  // gain_compensate = true by default
  SddFilter sdd(comp, bg);
  EXPECT_LT(sdd.distance(brighter), 2.0);
  EXPECT_GT(sdd.distance(with_object), 20.0);

  SddConfig raw;
  raw.gain_compensate = false;
  SddFilter sdd_raw(raw, bg);
  // Without compensation the lighting alone already looks like change.
  EXPECT_GT(sdd_raw.distance(brighter), 100.0);
}

TEST(SddFilter, ResizesInputToFeatureSize) {
  // A frame of a different resolution than the reference still works: both
  // are resized to the SDD feature size (100x100 by default).
  const image::Image bg(64, 64, 3, 90);
  const image::Image frame(128, 128, 3, 90);
  SddFilter sdd(SddConfig{}, bg);
  EXPECT_LT(sdd.distance(frame), 2.0);
}

TEST(SddCalibrate, SeparatesCleanDistances) {
  SddFilter sdd(SddConfig{}, flat(90));
  // Background distances ~5, target distances ~100.
  std::vector<double> d;
  std::vector<bool> label;
  for (int i = 0; i < 100; ++i) {
    d.push_back(5.0 + i * 0.01);
    label.push_back(false);
  }
  for (int i = 0; i < 50; ++i) {
    d.push_back(100.0 + i);
    label.push_back(true);
  }
  const double delta = sdd.calibrate(d, label);
  EXPECT_GT(delta, 6.0);
  EXPECT_LT(delta, 100.0);
  // All targets pass, all backgrounds are filtered, at the chosen delta.
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d[i] > delta, label[i]);
  }
}

TEST(SddCalibrate, RelaxFactorSitsBelowQuantile) {
  SddConfig cfg;
  cfg.fn_budget = 0.0;   // quantile = min target distance
  cfg.relax_factor = 0.5;
  cfg.bg_margin = 100.0;  // disable the background anchor for this check
  SddFilter sdd(cfg, flat(90));
  std::vector<double> d{1.0, 2.0, 50.0, 60.0, 70.0};
  std::vector<bool> label{false, false, true, true, true};
  const double delta = sdd.calibrate(d, label);
  EXPECT_NEAR(delta, 25.0, 1e-9);  // 0.5 * min(50)
}

TEST(SddCalibrate, BackgroundAnchorBoundsDelta) {
  // Targets so strong that the FN rule alone would pick a huge delta; the
  // background anchor keeps it near the background-distance ceiling.
  SddConfig cfg;
  cfg.bg_quantile = 0.90;
  cfg.bg_margin = 1.15;
  SddFilter sdd(cfg, flat(90));
  std::vector<double> d;
  std::vector<bool> label;
  for (int i = 0; i < 100; ++i) {
    d.push_back(4.0 + 0.02 * i);  // background: 4.0 .. 6.0
    label.push_back(false);
  }
  for (int i = 0; i < 50; ++i) {
    d.push_back(200.0 + i);
    label.push_back(true);
  }
  const double delta = sdd.calibrate(d, label);
  EXPECT_LT(delta, 10.0);
  EXPECT_GT(delta, 4.0);
}

TEST(SddCalibrate, NoTargetsFallsBackConservatively) {
  SddFilter sdd(SddConfig{}, flat(90));
  std::vector<double> d{1.0, 2.0, 3.0, 4.0};
  std::vector<bool> label{false, false, false, false};
  const double delta = sdd.calibrate(d, label);
  EXPECT_GT(delta, 0.0);
  EXPECT_LT(delta, 10.0);
}

TEST(SddCalibrate, BadInputsThrow) {
  SddFilter sdd(SddConfig{}, flat(90));
  EXPECT_THROW(sdd.calibrate({}, {}), std::invalid_argument);
  EXPECT_THROW(sdd.calibrate({1.0}, {true, false}), std::invalid_argument);
}

TEST(SddCalibrateOn, RealSceneKeepsTargetFramesPassing) {
  video::SceneConfig cfg = video::jackson_profile();
  cfg.width = 96;
  cfg.height = 72;
  cfg.tor = 0.4;
  video::SceneSimulator sim(cfg, 21, 800);
  std::vector<video::Frame> frames;
  for (int i = 0; i < 800; ++i) frames.push_back(sim.render(i));

  SddFilter sdd(SddConfig{}, sim.background());
  const double delta = sdd.calibrate_on(frames, cfg.target);
  EXPECT_GT(delta, 0.0);

  // On the calibration window itself the FN rate must respect the budget
  // (with slack for the relax factor this should be ~0).
  int fn = 0, targets = 0;
  for (const auto& f : frames) {
    if (!f.gt.any_target(cfg.target)) continue;
    ++targets;
    if (!sdd.pass(f.image)) ++fn;
  }
  ASSERT_GT(targets, 0);
  EXPECT_LT(static_cast<double>(fn) / targets, 0.02);
}

// --- agreement with the two-pass double kernel --------------------------------

/// The distance kernel SddFilter used before the one-pass integer rewrite,
/// kept as the oracle: allocating resize, then two passes in double with a
/// per-byte channel modulo. `reference` is already at the feature size.
double oracle_distance(const SddConfig& cfg, const image::Image& reference,
                       const image::Image& frame) {
  image::Image small = image::resize_bilinear(frame, cfg.width, cfg.height);
  image::Image ref = reference;
  bool gain = cfg.gain_compensate;
  if (small.channels() != ref.channels()) {
    small = image::to_gray(small);
    ref = image::to_gray(ref);
    gain = false;
  }
  if (!gain) {
    switch (cfg.metric) {
      case SddMetric::kMse: return image::mse(small, ref);
      case SddMetric::kNrmse: return image::nrmse(small, ref);
      case SddMetric::kSad: return image::sad(small, ref);
    }
  }
  const std::uint8_t* a = small.data();
  const std::uint8_t* b = ref.data();
  const std::size_t n = small.size_bytes();
  const auto channels = static_cast<std::size_t>(small.channels());
  double mean[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    mean[i % channels] += static_cast<double>(a[i]) - static_cast<double>(b[i]);
  }
  for (std::size_t c = 0; c < channels; ++c) {
    mean[c] /= static_cast<double>(n / channels);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d =
        static_cast<double>(a[i]) - static_cast<double>(b[i]) - mean[i % channels];
    acc += cfg.metric == SddMetric::kSad ? std::abs(d) : d * d;
  }
  acc /= static_cast<double>(n);
  return cfg.metric == SddMetric::kNrmse ? std::sqrt(acc) / 255.0 : acc;
}

struct AgreementCorpus {
  const char* name;
  video::SceneConfig scene;
  std::uint64_t seed;
};

TEST(SddAgreement, MatchesTwoPassDoubleKernelOnRenderedFrames) {
  video::SceneConfig jackson = video::jackson_profile();
  jackson.tor = 0.4;
  video::SceneConfig coral = video::coral_profile();
  coral.tor = 0.4;
  constexpr int kFrames = 150;
  // Which side of the comparison is gray: colour/colour and gray/gray take
  // the per-channel kernels (C = 3 and C = 1); the mixed pairs take the
  // luma fallback.
  enum class Input { kColor, kGray, kGrayFrame, kGrayReference };
  for (const AgreementCorpus& corpus :
       {AgreementCorpus{"jackson", jackson, 5}, AgreementCorpus{"coral", coral, 6}}) {
    video::SceneSimulator sim(corpus.scene, corpus.seed, kFrames);
    std::vector<image::Image> color, gray;
    std::vector<bool> label;
    for (int i = 0; i < kFrames; ++i) {
      const video::Frame f = sim.render(i);
      color.push_back(f.image);
      gray.push_back(image::to_gray(f.image));
      label.push_back(f.gt.any_target(corpus.scene.target));
    }
    ASSERT_GT(std::count(label.begin(), label.end(), true), 0) << corpus.name;
    const image::Image bg_gray = image::to_gray(sim.background());
    for (const Input input : {Input::kColor, Input::kGray, Input::kGrayFrame,
                              Input::kGrayReference}) {
      const bool gray_frame = input == Input::kGray || input == Input::kGrayFrame;
      const bool gray_ref = input == Input::kGray || input == Input::kGrayReference;
      const auto& frames = gray_frame ? gray : color;
      const image::Image& bg = gray_ref ? bg_gray : sim.background();
      for (const SddMetric metric :
           {SddMetric::kMse, SddMetric::kNrmse, SddMetric::kSad}) {
        for (const bool gain : {true, false}) {
          SddConfig cfg;
          cfg.metric = metric;
          cfg.gain_compensate = gain;
          SddFilter sdd(cfg, bg);
          const image::Image reference =
              image::resize_bilinear(bg, cfg.width, cfg.height);
          std::vector<double> want, got;
          for (const auto& frame : frames) {
            want.push_back(oracle_distance(cfg, reference, frame));
            got.push_back(sdd.distance(frame));
          }
          const std::string what = std::string(corpus.name) + " " + to_string(metric) +
                                   (gain ? " gain" : " raw") + " input " +
                                   std::to_string(static_cast<int>(input));
          for (std::size_t i = 0; i < frames.size(); ++i) {
            ASSERT_NEAR(got[i], want[i], 1e-9 * std::abs(want[i]) + 1e-12)
                << what << " frame " << i;
          }
          // Same verdict on every frame at the threshold calibrated from the
          // oracle, and calibration on the new distances lands on it too.
          const double delta = sdd.calibrate(want, label);
          int flips = 0, passes = 0;
          for (std::size_t i = 0; i < frames.size(); ++i) {
            flips += (got[i] > delta) != (want[i] > delta);
            passes += got[i] > delta;
          }
          EXPECT_EQ(flips, 0) << what;
          EXPECT_GT(passes, 0) << what;
          EXPECT_NEAR(sdd.calibrate(got, label), delta, 1e-9 * delta) << what;
        }
      }
    }
  }
}

TEST(SddFilter, ToStringCoversMetrics) {
  EXPECT_STREQ(to_string(SddMetric::kMse), "MSE");
  EXPECT_STREQ(to_string(SddMetric::kNrmse), "NRMSE");
  EXPECT_STREQ(to_string(SddMetric::kSad), "SAD");
}

}  // namespace
}  // namespace ffsva::detect
