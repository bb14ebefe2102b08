// GPU1 reference-stage batching in the live engine, checked against a
// sequential oracle that never touches the engine: RefMode::kBatch must emit
// exactly the frames a one-at-a-time SDD→SNM→T-YOLO pass keeps, each with
// the detections of a direct ReferenceDetector::detect; a frame the
// reference model cannot evaluate must be dropped alone (per-frame
// drop-on-error inside a batch); dropped frames must stay out of the
// output-latency distribution; and RefMode::kCropPack must agree with the
// oracle on the frames it emits. Runs under the tsan/asan labels — the
// batched reference loop and its cross-stream buffers are concurrency
// surface.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/pipeline.hpp"
#include "video/profiles.hpp"

namespace ffsva::core {
namespace {

struct TestStream {
  video::SceneConfig cfg;
  std::shared_ptr<video::SceneSimulator> sim;
  detect::StreamModels models;
};

/// One specialized small stream, shared across tests (training is slow).
TestStream& shared_stream() {
  static auto* t = [] {
    auto* s = new TestStream;
    s->cfg = video::jackson_profile();
    s->cfg.width = 128;
    s->cfg.height = 96;
    s->cfg.tor = 0.35;
    s->sim = std::make_shared<video::SceneSimulator>(s->cfg, 91, 1400);
    std::vector<video::Frame> calib;
    for (int i = 0; i < 700; ++i) calib.push_back(s->sim->render(i));
    detect::SpecializeConfig sc;
    sc.target = s->cfg.target;
    sc.snm.epochs = 5;
    s->models = detect::specialize_stream(calib, sc, 91);
    return s;
  }();
  return *t;
}

class WindowSource final : public video::FrameSource {
 public:
  WindowSource(std::shared_ptr<const video::SceneSimulator> sim, int stream_id,
               std::int64_t begin, std::int64_t end)
      : sim_(std::move(sim)), stream_id_(stream_id), next_(begin), end_(end) {}

  std::optional<video::Frame> next() override {
    if (next_ >= end_) return std::nullopt;
    return sim_->render(next_++, stream_id_);
  }
  std::int64_t total_frames() const override { return end_; }

 private:
  std::shared_ptr<const video::SceneSimulator> sim_;
  int stream_id_;
  std::int64_t next_, end_;
};

/// WindowSource that truncates every `period`-th frame by two rows. The
/// cheap filters all downscale to fixed detector inputs, so a truncated
/// frame rides the cascade normally — and throws (shape mismatch against
/// the full-resolution background) exactly at the reference model. That is
/// the in-engine probe for per-frame drop-on-error inside a batch.
class TruncatingSource final : public video::FrameSource {
 public:
  TruncatingSource(std::shared_ptr<const video::SceneSimulator> sim,
                   std::int64_t begin, std::int64_t end, int period)
      : sim_(std::move(sim)), next_(begin), end_(end), period_(period) {}

  std::optional<video::Frame> next() override {
    if (next_ >= end_) return std::nullopt;
    auto f = sim_->render(next_);
    if (next_ % period_ == 0) {
      const auto& src = f.image;
      image::Image cut(src.width(), src.height() - 2, src.channels());
      for (int y = 0; y < cut.height(); ++y) {
        for (int x = 0; x < cut.width(); ++x) {
          for (int c = 0; c < cut.channels(); ++c) {
            cut.at(x, y, c) = src.at(x, y, c);
          }
        }
      }
      f.image = std::move(cut);
    }
    ++next_;
    return f;
  }
  std::int64_t total_frames() const override { return end_; }

 private:
  std::shared_ptr<const video::SceneSimulator> sim_;
  std::int64_t next_, end_;
  int period_;
};

struct RunResult {
  std::vector<std::pair<int, std::int64_t>> outputs;  ///< (stream, index) in order
  std::vector<detect::DetectionResult> results;
  InstanceStats stats;
  std::uint64_t drop_hist_count = 0;
  std::uint64_t output_hist_count = 0;
  std::uint64_t ref_batches = 0;
};

/// Stream `i` of `streams` splitting [begin, end) evenly; the engine and
/// the oracle each build their own copy.
std::unique_ptr<video::FrameSource> make_source(int i, int streams, std::int64_t begin,
                                                std::int64_t end, bool truncate) {
  auto& s = shared_stream();
  const std::int64_t span = (end - begin) / streams;
  const std::int64_t b = begin + i * span;
  if (truncate) return std::make_unique<TruncatingSource>(s.sim, b, b + span, 7);
  return std::make_unique<WindowSource>(s.sim, i, b, b + span);
}

RunResult run_window(RefMode mode, int streams, std::int64_t begin,
                     std::int64_t end, bool truncate = false) {
  auto& s = shared_stream();
  FfsVaConfig cfg;
  cfg.ref_mode = mode;
  cfg.ref_batch_size = 6;
  if (truncate) cfg.degrade_policy = DegradePolicy::kBypass;
  FfsVaInstance instance(cfg);
  for (int i = 0; i < streams; ++i) {
    instance.add_stream(make_source(i, streams, begin, end, truncate), s.models);
  }
  RunResult r;
  // The sink runs on the reference-model thread, which run() joins before
  // it returns.
  instance.set_output_sink([&r](const OutputEvent& ev) {
    r.outputs.emplace_back(ev.frame.stream_id, ev.frame.index);
    r.results.push_back(ev.result);
  });
  r.stats = instance.run(/*online=*/false);
  r.drop_hist_count = instance.metrics().histogram("latency.drop_ms").count();
  r.output_hist_count = instance.metrics().histogram("latency.output_ms").count();
  r.ref_batches = instance.metrics().counter("executor.ref_batches").value();
  return r;
}

/// The engine-independent reference: every frame of every stream runs
/// through SDD→SNM→T-YOLO one at a time, and every survivor through a
/// direct ReferenceDetector::detect. Survivors the reference model cannot
/// evaluate (truncated frames) are counted in `rejected`, not listed.
using Key = std::pair<int, std::int64_t>;  ///< (stream, frame index)
struct Oracle {
  std::map<Key, detect::DetectionResult> emitted;
  std::uint64_t rejected = 0;

  std::set<Key> keys() const {
    std::set<Key> out;
    for (const auto& [key, result] : emitted) out.insert(key);
    return out;
  }
};

Oracle sequential_oracle(int streams, std::int64_t begin, std::int64_t end,
                         bool truncate = false) {
  auto& s = shared_stream();
  Oracle o;
  for (int i = 0; i < streams; ++i) {
    auto src = make_source(i, streams, begin, end, truncate);
    while (auto f = src->next()) {
      if (!s.models.sdd->pass(f->image) || !s.models.snm->pass(f->image) ||
          !s.models.tyolo->pass(f->image, s.models.target, 1)) {
        continue;
      }
      try {
        o.emitted.emplace(std::make_pair(f->stream_id, f->index),
                          s.models.reference->detect(f->image));
      } catch (const std::exception&) {
        ++o.rejected;
      }
    }
  }
  return o;
}

/// The engine emitted exactly the oracle's frames (each once), each with
/// the oracle's detections.
void expect_matches_oracle(const RunResult& r, const Oracle& o) {
  const std::set<Key> got(r.outputs.begin(), r.outputs.end());
  EXPECT_EQ(got.size(), r.outputs.size()) << "a frame was emitted twice";
  ASSERT_EQ(got, o.keys());
  for (std::size_t i = 0; i < r.outputs.size(); ++i) {
    const auto& want_dets = o.emitted.at(r.outputs[i]).detections;
    const auto& got_dets = r.results[i].detections;
    ASSERT_EQ(got_dets.size(), want_dets.size());
    for (std::size_t d = 0; d < want_dets.size(); ++d) {
      EXPECT_EQ(got_dets[d].box, want_dets[d].box);
      EXPECT_DOUBLE_EQ(got_dets[d].confidence, want_dets[d].confidence);
    }
  }
}

TEST(RefBatch, BatchedOutputsMatchSequentialOracle) {
  const auto batched = run_window(RefMode::kBatch, 2, 700, 1000);
  expect_matches_oracle(batched, sequential_oracle(2, 700, 1000));
  EXPECT_GT(batched.outputs.size(), 0u);
  EXPECT_GT(batched.ref_batches, 0u);
}

TEST(RefBatch, PerStreamFifoOrderHolds) {
  const auto r = run_window(RefMode::kBatch, 3, 700, 1000);
  std::map<int, std::int64_t> prev;
  for (const auto& [stream, index] : r.outputs) {
    auto it = prev.find(stream);
    if (it != prev.end()) {
      EXPECT_GT(index, it->second) << "stream " << stream << " reordered";
    }
    prev[stream] = index;
  }
  EXPECT_GT(r.outputs.size(), 0u);
}

TEST(RefBatch, ThrowingFrameIsDroppedAloneInsideBatches) {
  const auto batched = run_window(RefMode::kBatch, 1, 700, 1000, /*truncate=*/true);
  const auto oracle = sequential_oracle(1, 700, 1000, /*truncate=*/true);

  // Truncated frames reach the reference stage and throw there; the engine
  // must drop exactly those frames and emit everything else as the oracle
  // does — a batched exception must not take batch-mates down with it.
  expect_matches_oracle(batched, oracle);
  for (const auto& [stream, index] : batched.outputs) {
    EXPECT_NE(index % 7, 0) << "a truncated frame was emitted unvetted";
  }
  const auto& st_b = batched.stats.streams[0];
  EXPECT_GT(oracle.rejected, 0u);
  EXPECT_EQ(st_b.fault.degraded_frames, oracle.rejected);
  EXPECT_EQ(st_b.ref.in - st_b.ref.passed, st_b.fault.degraded_frames);
  // Conservation: every ingested frame still terminates exactly once.
  EXPECT_EQ(st_b.latency_ms.count(), st_b.prefetch.passed);
}

TEST(RefBatch, DroppedFramesFeedDropHistogramNotOutputLatency) {
  const auto r = run_window(RefMode::kBatch, 1, 700, 1000, /*truncate=*/true);
  // Satellite fix: reference-stage drops land in latency.drop_ms, and the
  // output-latency distribution counts exactly the emitted frames.
  EXPECT_EQ(r.drop_hist_count, r.stats.streams[0].fault.degraded_frames);
  EXPECT_GT(r.drop_hist_count, 0u);
  EXPECT_EQ(r.output_hist_count, r.outputs.size());
}

TEST(RefCropPack, EmitsSameFramesAndAgreesWithSequentialOracle) {
  auto& s = shared_stream();
  const auto oracle = sequential_oracle(2, 1000, 1300);
  const auto packed = run_window(RefMode::kCropPack, 2, 1000, 1300);
  // Every mode emits every frame the reference stage could evaluate, so the
  // emitted frame set matches the oracle's exactly; what kCropPack may
  // change (bounded by the fallback policy) is the detections.
  ASSERT_EQ(std::set<Key>(packed.outputs.begin(), packed.outputs.end()), oracle.keys());
  ASSERT_EQ(packed.outputs.size(), oracle.emitted.size());
  ASSERT_GT(packed.outputs.size(), 0u);
  const double conf = s.models.reference->config().confidence_threshold;
  int agree = 0;
  for (std::size_t i = 0; i < packed.outputs.size(); ++i) {
    const bool oracle_pass =
        oracle.emitted.at(packed.outputs[i]).count_target(s.models.target, conf) >= 1;
    const bool packed_pass =
        packed.results[i].count_target(s.models.target, conf) >= 1;
    if (oracle_pass == packed_pass) ++agree;
  }
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(packed.outputs.size());
  EXPECT_GE(agreement, 0.95)
      << "crop-packed pass/fail verdicts diverge from the sequential oracle";
}

TEST(RefConfig, ModeNamesAndDefaults) {
  EXPECT_STREQ(to_string(RefMode::kBatch), "batch");
  EXPECT_STREQ(to_string(RefMode::kCropPack), "crop_pack");
  FfsVaConfig cfg;
  EXPECT_EQ(cfg.ref_mode, RefMode::kBatch);
  EXPECT_GE(cfg.ref_batch_size, 1);
}

}  // namespace
}  // namespace ffsva::core
