// Post-facto search: find every crowd scene in a stored recording.
//
// The paper's second use case (Section 1): "post-facto analysis to look
// for a certain event or object retroactively". This example encodes an
// aquarium-camera day into the stored-video codec, then scans it twice:
//
//   * the brute-force way — every frame through the reference model;
//   * the FFS-VA way — the filtering cascade in front of it;
//
// and reports the found scenes plus the speedup (the paper's offline
// headline is 3x at low TOR; at this clip's TOR expect less — the advantage
// shrinks as TOR grows, Figure 4).
//
// Build & run:  ./build/examples/offline_search
#include <cstdio>
#include <memory>

#include "core/pipeline.hpp"
#include "runtime/stopwatch.hpp"
#include "video/codec.hpp"
#include "video/profiles.hpp"
#include "video/source.hpp"

using namespace ffsva;

int main() {
  // --- Record the "day" -----------------------------------------------------
  video::SceneConfig cfg = video::coral_profile();
  cfg.width = 256;
  cfg.height = 144;
  cfg.tor = 0.30;
  const std::int64_t kCalib = 800, kTotal = 2300;
  auto sim = std::make_shared<video::SceneSimulator>(cfg, 9, kTotal);

  std::printf("Encoding %lld frames to the stored-video codec...\n",
              static_cast<long long>(kTotal - kCalib));
  std::vector<video::Frame> recording;
  for (std::int64_t i = kCalib; i < kTotal; ++i) recording.push_back(sim->render(i));
  auto stored = std::make_shared<video::StoredVideo>(
      video::StoredVideo::encode(recording, 32, 4));
  const auto cstats = stored->stats();
  std::printf("  %.1f MB raw -> %.1f MB stored (%.1fx)\n\n", cstats.raw_bytes / 1e6,
              cstats.encoded_bytes / 1e6, cstats.compression_ratio());

  // --- Specialize ------------------------------------------------------------
  std::printf("Specializing the camera on its calibration window...\n");
  std::vector<video::Frame> calib;
  for (std::int64_t i = 0; i < kCalib; ++i) calib.push_back(sim->render(i));
  detect::SpecializeConfig sc;
  sc.target = cfg.target;
  sc.snm.epochs = 6;
  auto models = detect::specialize_stream(calib, sc, 9);
  models.snm->set_filter_degree(0.2);  // relaxed filtering for search recall

  const int kCrowd = 2;  // the query: scenes with at least 2 people

  // --- Brute force -----------------------------------------------------------
  std::printf("Brute-force scan (reference model on every frame)...\n");
  runtime::Stopwatch brute_watch;
  std::int64_t brute_hits = 0;
  {
    video::VideoReader reader(*stored);
    while (auto f = reader.next()) {
      if (models.reference->detect(f->image).count_target(cfg.target) >= kCrowd) {
        ++brute_hits;
      }
    }
  }
  const double brute_sec = brute_watch.elapsed_sec();

  // --- FFS-VA -----------------------------------------------------------------
  std::printf("FFS-VA scan (cascade in front of the reference model)...\n");
  runtime::Stopwatch ffs_watch;
  core::FfsVaConfig config;
  config.number_of_objects = kCrowd;
  core::FfsVaInstance instance(config);
  instance.add_stream(std::make_unique<video::StoredSource>(stored, 0), models);
  // The output sink runs on the reference-model thread, which run() joins
  // before it returns: keep the timestamps of the crowd hits.
  std::vector<double> hit_pts;
  instance.set_output_sink([&](const core::OutputEvent& ev) {
    if (ev.result.count_target(cfg.target) >= kCrowd) hit_pts.push_back(ev.frame.pts_sec);
  });
  const auto stats = instance.run(/*online=*/false);
  const double ffs_sec = ffs_watch.elapsed_sec();

  // Group the hits into scenes (gaps > 1 s start a new scene).
  const auto ffs_hits = static_cast<std::int64_t>(hit_pts.size());
  std::vector<std::pair<double, double>> scenes;
  for (const double pts : hit_pts) {
    if (scenes.empty() || pts - scenes.back().second > 1.0) {
      scenes.push_back({pts, pts});
    } else {
      scenes.back().second = pts;
    }
  }

  std::printf("\nFound %zu crowd scenes:\n", scenes.size());
  for (const auto& [from, to] : scenes) {
    std::printf("  %.1fs .. %.1fs\n", from, to);
  }

  const auto& s = stats.streams[0];
  std::printf("\n%-28s %10s %12s\n", "", "hit frames", "scan time");
  std::printf("%-28s %10lld %10.1f s\n", "brute force (all frames)",
              static_cast<long long>(brute_hits), brute_sec);
  std::printf("%-28s %10lld %10.1f s\n", "FFS-VA cascade",
              static_cast<long long>(ffs_hits), ffs_sec);
  std::printf("Speedup: %.2fx; reference model saw %.1f%% of the recording; "
              "frame recall %.1f%%\n",
              brute_sec / ffs_sec,
              100.0 * static_cast<double>(s.ref.in) / static_cast<double>(s.sdd.in),
              brute_hits ? 100.0 * static_cast<double>(ffs_hits) /
                               static_cast<double>(brute_hits)
                         : 100.0);
  return 0;
}
