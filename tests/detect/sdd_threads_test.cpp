// One SddFilter shared by several threads, as the engine's SDD worker pool
// shares a stream's filter. Each thread stages its resize in thread-local
// buffers; frames of two geometries interleave so every thread rebuilds its
// resize plan on every call. Lives in a tsan-labelled binary.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "detect/sdd.hpp"
#include "image/draw.hpp"
#include "runtime/rng.hpp"

namespace ffsva::detect {
namespace {

image::Image noisy(int w, int h, std::uint64_t seed) {
  runtime::Xoshiro256 rng(seed);
  image::Image img(w, h, 3);
  for (std::size_t i = 0; i < img.size_bytes(); ++i) {
    img.data()[i] = static_cast<std::uint8_t>(96 + (rng.next() & 0x1f));
  }
  return img;
}

TEST(SddThreads, SharedFilterMatchesSerialAcrossGeometries) {
  const SddFilter sdd(SddConfig{}, noisy(160, 120, 1));
  std::vector<image::Image> frames;
  for (int i = 0; i < 8; ++i) {
    // Alternate geometries: 160x120 and 200x90.
    image::Image f = i % 2 == 0 ? noisy(160, 120, 10u + i) : noisy(200, 90, 10u + i);
    image::fill_rect(f, image::Box{5 * i, 10, 5 * i + 30, 40}, image::Rgb{220, 40, 40});
    frames.push_back(std::move(f));
  }
  std::vector<double> serial;
  for (const auto& f : frames) serial.push_back(sdd.distance(f));

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t k = 0; k < frames.size(); ++k) {
          got[t].push_back(sdd.distance(frames[(k + t) % frames.size()]));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * frames.size());
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      EXPECT_EQ(got[t][i], serial[(i % frames.size() + t) % frames.size()])
          << "thread " << t << " call " << i;
    }
  }
}

}  // namespace
}  // namespace ffsva::detect
