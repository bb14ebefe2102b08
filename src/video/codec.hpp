// In-memory stored-video codec (temporal delta + run-length coding).
//
// The paper's offline mode reads a 55 GB day-long video file and its
// headline offline throughput (404 FPS) is bounded by the CPU-side
// prefetch/decode path, not by the GPU filters. To reproduce that path we
// store synthetic streams in a simple but real predictive codec:
//
//  * every `keyframe_interval`-th frame is coded standalone (delta against
//    a zero frame), the rest against the previous frame (mod-256 residual);
//  * residual planes are run-length coded: long zero runs (static
//    background) collapse to a few bytes, so compression genuinely tracks
//    scene activity;
//  * decoding is sequential per GOP with random access at keyframes —
//    the same access pattern a real surveillance recording gives a reader.
//
// Ground truth travels uncompressed next to the bitstream (it is evaluation
// metadata, not pixels).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "video/frame.hpp"

namespace ffsva::video {

struct CodecStats {
  std::size_t raw_bytes = 0;
  std::size_t encoded_bytes = 0;
  double compression_ratio() const {
    return encoded_bytes ? static_cast<double>(raw_bytes) / encoded_bytes : 0.0;
  }
};

class StoredVideo {
 public:
  /// Encode a sequence of frames (all must share one shape).
  ///
  /// `deadzone`: residuals with |difference| <= deadzone are coded as zero
  /// (near-lossless mode; 0 = lossless). Sensor noise otherwise defeats
  /// temporal prediction entirely — the same reason every real surveillance
  /// codec quantizes. The encoder predicts from its own *reconstruction*,
  /// so error never exceeds the deadzone regardless of GOP length.
  static StoredVideo encode(const std::vector<Frame>& frames,
                            int keyframe_interval = 32, int deadzone = 0);

  std::int64_t frame_count() const { return static_cast<std::int64_t>(offsets_.size()); }
  int width() const { return width_; }
  int height() const { return height_; }
  int channels() const { return channels_; }
  int keyframe_interval() const { return keyframe_interval_; }
  CodecStats stats() const;

  friend class VideoReader;

 private:
  int width_ = 0, height_ = 0, channels_ = 0;
  int keyframe_interval_ = 32;
  std::vector<std::uint8_t> bitstream_;
  std::vector<std::size_t> offsets_;   ///< Start of each frame's packet.
  std::vector<std::size_t> sizes_;     ///< Packet length per frame.
  std::vector<GroundTruth> gt_;        ///< Sidecar ground truth.
  std::vector<double> pts_;
};

/// Sequential reader with keyframe seeking. Decoding does real per-pixel
/// work, which is what gives the offline prefetch stage its CPU cost.
///
/// Reconstruction state advances *lazily*: seek() only moves the cursor;
/// pixels are reconstructed when next() actually needs them, by re-syncing
/// at the last keyframe at or before the target (or replaying residuals if
/// the live state is closer, as after a short forward seek inside a GOP).
class VideoReader {
 public:
  explicit VideoReader(const StoredVideo& video, int stream_id = 0);

  /// Next frame, or nullopt at end of stream.
  std::optional<Frame> next();

  /// Seek so that the following next() returns frame `index` (reconstruction
  /// happens lazily at that next(), from the preceding keyframe).
  void seek(std::int64_t index);

  std::int64_t position() const { return next_index_; }

 private:
  void decode_into(std::int64_t index);
  void materialize(std::int64_t index);

  const StoredVideo& video_;
  int stream_id_;
  std::int64_t next_index_ = 0;
  std::int64_t state_index_ = -1;  ///< Frame held in previous_ (-1: none).
  image::Image previous_;          ///< Reconstruction state.
};

}  // namespace ffsva::video
