// Frame sources: where the prefetch stage of each stream pipeline pulls
// frames from. Live sources render the synthetic scene on demand (online
// mode: a camera); stored sources decode the delta-RLE bitstream (offline
// mode: a recording), so the prefetch stage pays a real decode cost.
//
// Real camera fleets fail: connections drop, decoders hit corrupt NALs,
// RTSP sessions die and need a reconnect. next() reports those through
// SourceError (transient = retry may succeed, fatal = the session is dead)
// and restart() models the reconnect; the engine's prefetch loop owns the
// retry/restart budget and backoff (DESIGN.md Section 9).
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "video/codec.hpp"
#include "video/scene.hpp"

namespace ffsva::video {

/// A decode/transport failure raised by FrameSource::next().
///  * kTransient — this read failed but the source is still usable (a
///    corrupt packet, a momentary network hiccup); retrying next() is the
///    right response.
///  * kFatal — the source session is dead (device unplugged, stream
///    closed); only restart() can revive it.
class SourceError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t { kTransient = 0, kFatal = 1 };

  SourceError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const { return kind_; }
  bool transient() const { return kind_ == Kind::kTransient; }

 private:
  Kind kind_;
};

class FrameSource {
 public:
  virtual ~FrameSource() = default;
  /// Next frame in presentation order, or nullopt at end of stream.
  /// May throw SourceError; after a transient error the stream position is
  /// unchanged (a successful retry resumes without frame loss).
  virtual std::optional<Frame> next() = 0;
  /// Total frames this source will yield (for progress/termination).
  virtual std::int64_t total_frames() const = 0;
  /// Attempt to revive the source after a fatal SourceError (reconnect the
  /// camera, reopen the file). Returns false when the source does not
  /// support restart (the default) or the revival failed.
  virtual bool restart() { return false; }

  /// Compression statistics of the underlying bitstream, when there is one.
  /// Must be safe to call concurrently with next() (immutable data only) —
  /// the engine reads it from snapshot() while the prefetch thread decodes.
  virtual std::optional<CodecStats> codec_stats() const { return std::nullopt; }
};

/// Renders frames from a shared scene simulator (a "camera").
class LiveSource final : public FrameSource {
 public:
  LiveSource(std::shared_ptr<const SceneSimulator> sim, int stream_id)
      : sim_(std::move(sim)), stream_id_(stream_id) {}

  std::optional<Frame> next() override {
    if (next_index_ >= sim_->total_frames()) return std::nullopt;
    return sim_->render(next_index_++, stream_id_);
  }

  std::int64_t total_frames() const override { return sim_->total_frames(); }

 private:
  std::shared_ptr<const SceneSimulator> sim_;
  int stream_id_;
  std::int64_t next_index_ = 0;
};

/// Decodes frames from a stored video (a "recording").
class StoredSource final : public FrameSource {
 public:
  StoredSource(std::shared_ptr<const StoredVideo> video, int stream_id)
      : video_(std::move(video)), reader_(*video_, stream_id) {}

  std::optional<Frame> next() override { return reader_.next(); }

  std::int64_t total_frames() const override { return video_->frame_count(); }

  std::optional<CodecStats> codec_stats() const override { return video_->stats(); }

 private:
  std::shared_ptr<const StoredVideo> video_;
  VideoReader reader_;
};

}  // namespace ffsva::video
