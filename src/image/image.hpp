// Minimal dense image container.
//
// All FFS-VA filters operate on small raster images: SDD on ~100x100
// color, SNM on 50x50, T-YOLO on a downscaled detector input, the
// reference model on the full frame. We keep a single u8 interleaved
// HWC layout (like a decoded video frame) and convert to float tensors
// only at the NN boundary.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ffsva::image {

class Image {
 public:
  Image() = default;
  Image(int width, int height, int channels, std::uint8_t fill = 0)
      : w_(width), h_(height), c_(channels),
        data_(static_cast<std::size_t>(width) * height * channels, fill) {
    assert(width >= 0 && height >= 0 && (channels == 1 || channels == 3));
  }

  int width() const { return w_; }
  int height() const { return h_; }
  int channels() const { return c_; }
  bool empty() const { return data_.empty(); }
  std::size_t size_bytes() const { return data_.size(); }

  std::uint8_t* data() { return data_.data(); }
  const std::uint8_t* data() const { return data_.data(); }

  /// Pixel accessors (bounds asserted in debug builds only; the filters are
  /// hot loops).
  std::uint8_t& at(int x, int y, int ch = 0) {
    assert(in_bounds(x, y) && ch < c_);
    return data_[(static_cast<std::size_t>(y) * w_ + x) * c_ + ch];
  }
  std::uint8_t at(int x, int y, int ch = 0) const {
    assert(in_bounds(x, y) && ch < c_);
    return data_[(static_cast<std::size_t>(y) * w_ + x) * c_ + ch];
  }

  bool in_bounds(int x, int y) const { return x >= 0 && x < w_ && y >= 0 && y < h_; }

  void fill(std::uint8_t v) { std::fill(data_.begin(), data_.end(), v); }

  /// Reshape in place, reusing the existing allocation when capacity
  /// allows (the resize-into hot paths depend on this being free for a
  /// repeated geometry). Pixel contents are unspecified after a change.
  void reset(int width, int height, int channels) {
    assert(width >= 0 && height >= 0 && (channels == 1 || channels == 3));
    w_ = width;
    h_ = height;
    c_ = channels;
    data_.resize(static_cast<std::size_t>(width) * height * channels);
  }

  bool same_shape(const Image& o) const {
    return w_ == o.w_ && h_ == o.h_ && c_ == o.c_;
  }

  bool operator==(const Image& o) const {
    return same_shape(o) && data_ == o.data_;
  }

 private:
  int w_ = 0;
  int h_ = 0;
  int c_ = 0;
  std::vector<std::uint8_t> data_;
};

/// Accumulator image of doubles, used to average background frames for the
/// SDD reference image (paper Section 3.2.1: "the reference image is usually
/// computed as the average of dozens of background frames").
class Accumulator {
 public:
  Accumulator() = default;

  /// Adds a frame; all frames must share one shape.
  void add(const Image& img);

  /// Mean image over all added frames. Returns an empty image if none.
  Image mean() const;

  int count() const { return n_; }

 private:
  int w_ = 0, h_ = 0, c_ = 0, n_ = 0;
  std::vector<double> sum_;
};

}  // namespace ffsva::image
