// Workload inputs for the engine benchmark: the three named workloads, the
// specialized scene each one replays, the per-stream sources the engine's
// prefetch threads read, and the sequential-cascade oracle every run's
// verdicts are checked against.
//
// Each workload is one fixed recording: a scene (camera, timeline, models)
// planned from a constant seed. The run's --seed picks each stream's start
// offset into that recording and, online, each camera's phase. Offsets are
// a seeded rotation plus a seeded permutation of evenly spaced slots, and
// every stream reads a whole number of slots, so the streams together cover
// every scene frame equally often: the funnel counts are the same for every
// seed, while which stream meets which burst, and when, changes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "detect/specialize.hpp"
#include "video/codec.hpp"
#include "video/scene.hpp"
#include "video/source.hpp"

namespace enginebench {

using Clock = std::chrono::steady_clock;

struct WorkloadSpec {
  std::string name;
  ffsva::video::SceneConfig scene;
  std::uint64_t scene_seed = 0;
  int streams = 0;
  std::int64_t scene_frames = 0;       ///< Length of the recording.
  std::int64_t frames_per_stream = 0;  ///< A multiple of scene_frames / streams.
  bool stored = false;  ///< Decode through video::StoredVideo, else replay.
  bool online = false;  ///< run(online=true) behind 30 FPS cameras.
};

/// The named workload, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// The sequential cascade's verdict on one scene frame.
enum class Fate : std::uint8_t { kSdd = 0, kSnm = 1, kTyolo = 2, kEmit = 3 };

struct OracleFrame {
  Fate fate = Fate::kSdd;
  int ref_detections = 0;  ///< ReferenceDetector::detect(...).detections.size().
  int ref_targets = 0;     ///< count_target at the reference confidence.
};

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  ffsva::detect::StreamModels models;
  std::vector<double> setup_s;  ///< Wall time of each specialize_stream call.
  /// Replay workloads: the rendered recording.
  std::vector<ffsva::video::Frame> frames;
  /// Stored workloads: the recording as consecutive encoded segments.
  std::vector<std::shared_ptr<const ffsva::video::StoredVideo>> segments;
  std::vector<OracleFrame> oracle;    ///< Per scene frame.
  std::vector<std::int64_t> offsets;  ///< Per stream start frame in the scene.
  std::vector<double> phase_s;        ///< Per stream camera phase (online).

  std::int64_t scene_index(int stream, std::int64_t k) const {
    return (offsets[static_cast<std::size_t>(stream)] + k) % spec->scene_frames;
  }
};

/// Build the workload's recording, specialize its models `specializations`
/// times (timing each call) and compute the oracle. Deterministic in
/// (workload, seed).
Inputs build_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                    int specializations);

/// Frames of a stored segment, decoded sequentially.
std::vector<ffsva::video::Frame> decode_all(const ffsva::video::StoredVideo& video);

/// What a source recorded about each frame it handed out.
struct StreamLog {
  /// When the frame was due. Online: its capture time, stream start +
  /// phase + k/30. Offline: the stream's start, since a recording is there
  /// in full when the analysis begins (result latency is then the time to
  /// that result of the batch job).
  std::vector<Clock::time_point> due;
  /// How late the engine asked for the frame, in ms; negative where no
  /// sample exists. Online: the camera's frame was ready at its capture
  /// time and the pull came this much after it. Offline: time between
  /// handing over frame k-1 and the request for frame k, i.e. backpressure
  /// on the reader (no sample for the first frame).
  std::vector<double> lag_ms;
};

/// One stream of a workload, run on the engine's own prefetch thread: a
/// decoding reader over the stored segments, or a copy out of the rendered
/// recording. Frames carry index = position in the stream. Paced sources
/// behave like a camera: frame k is not available before its capture time.
class BenchSource final : public ffsva::video::FrameSource {
 public:
  BenchSource(const Inputs& inputs, int stream, StreamLog* log);

  std::optional<ffsva::video::Frame> next() override;
  std::int64_t total_frames() const override {
    return inputs_.spec->frames_per_stream;
  }

 private:
  ffsva::video::Frame fetch(std::int64_t scene_index);

  const Inputs& inputs_;
  const int stream_;
  StreamLog* log_;
  std::int64_t k_ = 0;
  Clock::time_point start_{};
  Clock::time_point last_handover_{};
  std::optional<ffsva::video::VideoReader> reader_;
  std::int64_t reader_segment_ = -1;
};

}  // namespace enginebench
