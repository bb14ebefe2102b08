#include "video/codec.hpp"

#include <stdexcept>

namespace ffsva::video {

namespace {

void put_varint(std::vector<std::uint8_t>& out, std::size_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t get_varint(const std::uint8_t* data, std::size_t size, std::size_t& pos) {
  std::size_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= size) throw std::runtime_error("truncated varint in bitstream");
    const std::uint8_t b = data[pos++];
    v |= static_cast<std::size_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

// Token stream: 0x00 <varint n>            -> n zero residuals
//               0x01 <varint n> <n bytes>  -> n literal residuals
void rle_encode(std::vector<std::uint8_t>& out, const std::uint8_t* residual,
                std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    if (residual[i] == 0) {
      std::size_t j = i;
      while (j < n && residual[j] == 0) ++j;
      out.push_back(0x00);
      put_varint(out, j - i);
      i = j;
    } else {
      std::size_t j = i;
      // A literal run ends at a "long enough" zero run; short zero gaps are
      // cheaper to carry as literals than to break the run for.
      while (j < n && !(residual[j] == 0 && j + 3 < n && residual[j + 1] == 0 &&
                        residual[j + 2] == 0 && residual[j + 3] == 0)) {
        ++j;
      }
      out.push_back(0x01);
      put_varint(out, j - i);
      out.insert(out.end(), residual + i, residual + j);
      i = j;
    }
  }
}

void rle_decode_apply(const std::uint8_t* packet, std::size_t packet_size,
                      std::uint8_t* pixels, std::size_t n) {
  std::size_t pos = 0;
  std::size_t i = 0;
  while (pos < packet_size) {
    const std::uint8_t tag = packet[pos++];
    const std::size_t run = get_varint(packet, packet_size, pos);
    if (i + run > n) throw std::runtime_error("residual overruns frame");
    if (tag == 0x00) {
      i += run;  // residual 0: pixels unchanged
    } else if (tag == 0x01) {
      if (pos + run > packet_size) throw std::runtime_error("truncated literal run");
      for (std::size_t k = 0; k < run; ++k) {
        pixels[i + k] = static_cast<std::uint8_t>(pixels[i + k] + packet[pos + k]);
      }
      pos += run;
      i += run;
    } else {
      throw std::runtime_error("bad token tag in bitstream");
    }
  }
  if (i != n) throw std::runtime_error("packet does not cover the frame");
}

}  // namespace

StoredVideo StoredVideo::encode(const std::vector<Frame>& frames, int keyframe_interval,
                                int deadzone) {
  StoredVideo v;
  if (frames.empty()) return v;
  v.width_ = frames[0].image.width();
  v.height_ = frames[0].image.height();
  v.channels_ = frames[0].image.channels();
  v.keyframe_interval_ = keyframe_interval < 1 ? 1 : keyframe_interval;

  const std::size_t n = frames[0].image.size_bytes();
  std::vector<std::uint8_t> residual(n);
  // Predict from the *reconstruction*, exactly as the decoder will, so the
  // deadzone never accumulates drift.
  image::Image recon(v.width_, v.height_, v.channels_);  // zero frame

  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto& img = frames[f].image;
    if (!img.same_shape(frames[0].image)) {
      throw std::invalid_argument("all frames in a stored video must share one shape");
    }
    const bool key = (f % static_cast<std::size_t>(v.keyframe_interval_)) == 0;
    if (key) recon.fill(0);
    const std::uint8_t* cur = img.data();
    std::uint8_t* rec = recon.data();
    for (std::size_t i = 0; i < n; ++i) {
      const int d = static_cast<int>(cur[i]) - static_cast<int>(rec[i]);
      // Keyframes stay exact so seeks reset any deadzone error.
      if (!key && d != 0 && d >= -deadzone && d <= deadzone) {
        residual[i] = 0;
      } else {
        residual[i] = static_cast<std::uint8_t>(d);
        rec[i] = cur[i];
      }
    }
    v.offsets_.push_back(v.bitstream_.size());
    rle_encode(v.bitstream_, residual.data(), n);
    v.sizes_.push_back(v.bitstream_.size() - v.offsets_.back());
    v.gt_.push_back(frames[f].gt);
    v.pts_.push_back(frames[f].pts_sec);
  }
  return v;
}

CodecStats StoredVideo::stats() const {
  CodecStats s;
  s.raw_bytes = static_cast<std::size_t>(width_) * height_ * channels_ * offsets_.size();
  s.encoded_bytes = bitstream_.size();
  return s;
}

VideoReader::VideoReader(const StoredVideo& video, int stream_id)
    : video_(video), stream_id_(stream_id),
      previous_(video.width(), video.height(), video.channels()) {}

void VideoReader::decode_into(std::int64_t index) {
  const bool key = (index % video_.keyframe_interval_) == 0;
  if (key) previous_.fill(0);
  rle_decode_apply(video_.bitstream_.data() + video_.offsets_[static_cast<std::size_t>(index)],
                   video_.sizes_[static_cast<std::size_t>(index)], previous_.data(),
                   previous_.size_bytes());
}

void VideoReader::materialize(std::int64_t index) {
  if (state_index_ == index) return;
  const std::int64_t key = index - (index % video_.keyframe_interval_);
  // Replaying from the live state is valid only when it sits inside the
  // target's own GOP and behind the target; otherwise re-sync at the
  // keyframe (decode_into resets the canvas there, so skipped frames never
  // have to be reconstructed — the predictive chain restarts).
  const std::int64_t from =
      (state_index_ >= key && state_index_ < index) ? state_index_ + 1 : key;
  for (std::int64_t i = from; i <= index; ++i) decode_into(i);
  state_index_ = index;
}

std::optional<Frame> VideoReader::next() {
  if (next_index_ >= video_.frame_count()) return std::nullopt;
  materialize(next_index_);
  Frame f;
  f.image = previous_;
  f.stream_id = stream_id_;
  f.index = next_index_;
  f.pts_sec = video_.pts_[static_cast<std::size_t>(next_index_)];
  f.gt = video_.gt_[static_cast<std::size_t>(next_index_)];
  ++next_index_;
  return f;
}

void VideoReader::seek(std::int64_t index) {
  if (index < 0 || index >= video_.frame_count()) {
    throw std::out_of_range("seek beyond stored video");
  }
  next_index_ = index;
}

}  // namespace ffsva::video
