// Stored-video ingest against the live engine (DESIGN.md §13).
//
// Runs the real FfsVaInstance over StoredSource streams: every stored
// frame is decoded once before SDD, the ingest counters and the exported
// SDD counters agree with the per-stream stats, and a stored stream shares
// the SDD pool with a live one with both conserving frames.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "video/profiles.hpp"
#include "video/source.hpp"

namespace ffsva::core {
namespace {

struct TestStream {
  video::SceneConfig cfg;
  std::shared_ptr<video::SceneSimulator> sim;
  detect::StreamModels models;
  std::shared_ptr<const video::StoredVideo> video;  ///< frames [500, 800)
};

/// One specialized stream plus a stored recording of its tail window,
/// shared across tests (training and encoding are slow).
TestStream& shared_stream() {
  static auto* t = [] {
    auto* s = new TestStream;
    s->cfg = video::jackson_profile();
    s->cfg.width = 128;
    s->cfg.height = 96;
    s->cfg.tor = 0.35;
    s->sim = std::make_shared<video::SceneSimulator>(s->cfg, 91, 1000);
    std::vector<video::Frame> calib;
    for (int i = 0; i < 500; ++i) calib.push_back(s->sim->render(i));
    detect::SpecializeConfig sc;
    sc.target = s->cfg.target;
    sc.snm.epochs = 5;
    s->models = detect::specialize_stream(calib, sc, 91);
    std::vector<video::Frame> window;
    for (int i = 500; i < 800; ++i) window.push_back(s->sim->render(i));
    s->video = std::make_shared<const video::StoredVideo>(
        video::StoredVideo::encode(window, /*keyframe_interval=*/32,
                                   /*deadzone=*/4));
    return s;
  }();
  return *t;
}

TEST(StoredIngest, DecodesEveryFrame) {
  auto& s = shared_stream();
  FfsVaInstance instance{FfsVaConfig{}};
  instance.add_stream(std::make_unique<video::StoredSource>(s.video, 0), s.models);
  const auto stats = instance.run(/*online=*/false);
  ASSERT_EQ(stats.streams.size(), 1u);
  const auto& in = stats.streams[0].ingest;
  EXPECT_EQ(in.decode_full, 300u);
  EXPECT_EQ(in.decode_ms.count, 300u);
  // The codec's compression ratio surfaces per stream.
  EXPECT_GT(in.compression_ratio, 1.0);
}

TEST(StoredIngest, RegistrySddCountersMatchStreamStats) {
  // The exported SDD counters are derived from the same stream atomics the
  // per-stream stats read.
  auto& s = shared_stream();
  FfsVaInstance instance{FfsVaConfig{}};
  for (int i = 0; i < 2; ++i) {
    instance.add_stream(std::make_unique<video::StoredSource>(s.video, i), s.models);
  }
  const auto stats = instance.run(/*online=*/false);
  std::uint64_t in = 0, passed = 0;
  for (const auto& st : stats.streams) {
    in += st.sdd.in;
    passed += st.sdd.passed;
  }
  EXPECT_EQ(in, 600u);
  const auto m = instance.metrics_snapshot();
  EXPECT_EQ(m.counter_or("sdd.in"), in);
  EXPECT_EQ(m.counter_or("sdd.passed"), passed);
  EXPECT_EQ(m.counter_or("drop.sdd"), in - passed);
}

TEST(StoredIngest, StoredAndLiveStreamsConserveFrames) {
  // A stored stream and a live (rendered) stream share the SDD pool: each
  // ingests, decodes and terminates every one of its frames.
  auto& s = shared_stream();
  FfsVaInstance instance{FfsVaConfig{}};
  instance.add_stream(std::make_unique<video::StoredSource>(s.video, 0), s.models);
  instance.add_stream(std::make_unique<video::LiveSource>(s.sim, 1), s.models);
  const auto stats = instance.run(/*online=*/false);
  ASSERT_EQ(stats.streams.size(), 2u);
  const std::uint64_t frames[] = {300, 1000};
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& st = stats.streams[i];
    EXPECT_EQ(st.prefetch.passed, frames[i]) << "stream " << i;
    EXPECT_EQ(st.sdd.in, frames[i]) << "stream " << i;
    EXPECT_EQ(st.ingest.decode_full, frames[i]) << "stream " << i;
    EXPECT_EQ(st.terminated, frames[i]) << "stream " << i;
    EXPECT_EQ(st.latency_ms.count(), frames[i]) << "stream " << i;
  }
}

}  // namespace
}  // namespace ffsva::core
