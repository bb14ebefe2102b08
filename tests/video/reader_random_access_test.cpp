// Random access into the stored-video codec (DESIGN.md §13).
//
// VideoReader::seek() only moves the cursor; the next next() reconstructs
// lazily, either by re-syncing at the preceding keyframe or by replaying
// residuals from the live state when that sits behind the target in the
// same GOP. Both paths must reproduce the sequential decode bit-for-bit.
#include "video/codec.hpp"

#include <gtest/gtest.h>

#include "video/profiles.hpp"
#include "video/scene.hpp"

namespace ffsva::video {
namespace {

std::vector<Frame> make_frames(int count, double tor = 0.4) {
  SceneConfig cfg = jackson_profile();
  cfg.width = 96;
  cfg.height = 72;
  cfg.tor = tor;
  SceneSimulator sim(cfg, 7, count);
  std::vector<Frame> frames;
  for (int i = 0; i < count; ++i) frames.push_back(sim.render(i));
  return frames;
}

/// Sequential ground truth (the deadzone makes it differ from the input).
std::vector<image::Image> decode_sequentially(const StoredVideo& video) {
  std::vector<image::Image> truth;
  VideoReader r(video);
  while (auto f = r.next()) truth.push_back(f->image);
  return truth;
}

TEST(ReaderRandomAccess, EveryKeyframeOffsetMatchesSequential) {
  const auto frames = make_frames(40, 0.5);
  const StoredVideo video = StoredVideo::encode(frames, 8, 3);
  const auto truth = decode_sequentially(video);
  ASSERT_EQ(truth.size(), 40u);
  for (std::int64_t start = 0; start < 40; ++start) {
    VideoReader r(video);
    r.seek(start);
    for (std::int64_t i = start; i < 40; ++i) {
      const auto got = r.next();
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->image, truth[static_cast<std::size_t>(i)])
          << "seek(" << start << ") then frame " << i;
    }
  }
}

TEST(ReaderRandomAccess, SkipsMidGopStayBitExact) {
  const auto frames = make_frames(40, 0.5);
  const StoredVideo video = StoredVideo::encode(frames, 8, 3);
  const auto truth = decode_sequentially(video);
  // Decode, then seek forward past runs that land mid-GOP, straddle a
  // keyframe, and cover whole GOPs — after each, next() must still match
  // sequential. The mid-GOP skip replays residuals from the live state;
  // the others re-sync at a keyframe and never touch the skipped frames.
  VideoReader r(video);
  std::int64_t pos = 0;
  const auto expect_next = [&] {
    const auto got = r.next();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->image, truth[static_cast<std::size_t>(pos)]) << "frame " << pos;
    ++pos;
  };
  const auto skip = [&](int n) {
    pos += n;
    r.seek(pos);
  };
  expect_next();  // 0
  skip(3);        // mid-GOP skip: state behind in same GOP
  expect_next();  // 4 (replayed 1..4)
  skip(6);        // crosses the keyframe at 8
  expect_next();  // 11 (re-synced at 8)
  skip(17);       // two whole GOPs with zero pixel work
  expect_next();  // 29
  while (pos < 40) expect_next();
  EXPECT_FALSE(r.next().has_value());
}

}  // namespace
}  // namespace ffsva::video
