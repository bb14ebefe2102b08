// FFS-VA system configuration (paper Sections 3-4).
#pragma once

#include <cstdint>

namespace ffsva::core {

/// SNM batching policy (Section 4.3.2 / Figures 9-10):
///  * kStatic   — always wait for a full BatchSize of frames (queues are
///                effectively unbounded; no feedback).
///  * kFeedback — feedback-queue mechanism alone: bounded queues throttle
///                upstream stages; SNM waits for min(BatchSize, queue
///                threshold) frames.
///  * kDynamic  — feedback plus dynamic batch: SNM takes whatever is
///                waiting, up to BatchSize, and never waits for more.
enum class BatchPolicy : std::uint8_t { kStatic = 0, kFeedback = 1, kDynamic = 2 };

const char* to_string(BatchPolicy p);

/// What the engine does with a frame whose model call threw (a corrupt
/// frame a filter cannot evaluate, a failing model):
///  * kDrop   — the frame terminates at the throwing stage, counted in the
///              stream's degraded_frames (conservative: never emit an
///              unvetted frame).
///  * kBypass — the frame skips the throwing filter and rides to the next
///              stage, counted as degraded (recall-preserving: a broken
///              cheap filter must not silence a stream; the later stages —
///              ultimately the reference model — still vet the frame).
enum class DegradePolicy : std::uint8_t { kDrop = 0, kBypass = 1 };

const char* to_string(DegradePolicy p);

/// How the GPU1 reference stage consumes its queue:
///  * kBatch    — drain ref_q in cross-stream micro-batches of up to
///                ref_batch_size frames under the shared BatchPolicy and
///                evaluate them together (detect_batch), amortizing setup
///                and exploiting the device's internal parallelism.
///  * kCropPack — object-level consolidation (Rivas et al.): pack padded
///                candidate crops (T-YOLO's boxes) from many streams into
///                mosaic canvases and run the reference model once per
///                mosaic, falling back to full-frame detection for frames
///                whose candidate area exceeds the coverage threshold
///                (detect::CropPackConfig).
enum class RefMode : std::uint8_t { kBatch = 0, kCropPack = 1 };

const char* to_string(RefMode m);

struct FfsVaConfig {
  // --- user-facing event definition (Section 4.2) -------------------------
  double filter_degree = 0.5;   ///< Aggressiveness of SNM filtering in [0,1].
  int number_of_objects = 1;    ///< Minimum target count a frame must carry.

  // --- batching (Section 4.3.2) -------------------------------------------
  BatchPolicy batch_policy = BatchPolicy::kDynamic;
  int batch_size = 16;

  // --- feedback-queue thresholds (Section 4.3.1: "2, 10, and 2 as the
  // queue depth thresholds of the SDD queues, SNM queues, and T-YOLO
  // queues respectively") ---------------------------------------------------
  int sdd_queue_depth = 2;
  int snm_queue_depth = 10;
  int tyolo_queue_depth = 2;
  /// The reference model's input queue. The paper fixes only the three
  /// filter-queue thresholds above; this queue must be deep enough that a
  /// scene burst saturating the reference GPU does not block the single
  /// shared T-YOLO service (which would stall every stream at once).
  /// Depth 64 ≈ 1 s of reference-model work — the backlog that shows up
  /// as the multi-second latencies of Figure 3 near the stream limit.
  int ref_queue_depth = 64;

  /// Max frames T-YOLO extracts from one stream's queue per service cycle
  /// (inter-stream load balancing, Section 3.2.3 / 4.3.1).
  int num_tyolo = 4;

  // --- GPU1 reference stage: micro-batching + crop consolidation -----------
  /// How the reference loop consumes ref_q (see RefMode). kBatch emits
  /// exactly what a per-frame ReferenceDetector::detect would (same
  /// per-stream FIFO order, same drop-on-error contract); kCropPack trades a
  /// bounded detection delta for running the expensive model on candidate
  /// pixels only.
  RefMode ref_mode = RefMode::kBatch;
  /// Micro-batch cap for the reference stage (mirrors batch_size for SNM).
  int ref_batch_size = 8;

  // --- engine sizing --------------------------------------------------------
  /// SDD worker-pool size. The engine runs a fixed pool of CPU workers over
  /// all streams' SDD queues (total thread count O(workers), not
  /// O(streams)); 0 = auto, which resolves to the FFSVA_THREADS compute
  /// parallelism capped by the stream count.
  int sdd_workers = 0;

  // --- online mode ----------------------------------------------------------
  double online_fps = 30.0;
  /// Capacity of the live-capture ring buffer in front of SDD. A camera
  /// cannot block, so bursts ride out here (~4 s at 30 FPS, enough to ride
  /// out one scene-length burst); a frame is lost only once this buffer
  /// overflows. Offline mode ignores it: there the SDD queue holds
  /// capacity(sdd_queue_depth) frames and the decoder stalls on that
  /// feedback threshold instead.
  int ingest_buffer = 128;

  // --- supervision (fault tolerance; DESIGN.md Sections 9 and 14) ---------
  // Each timeout owns one kind of in-flight call and has one response.
  /// Governs the per-stream decode calls only. A stream's decode in flight
  /// for longer than this quarantines the stream: its queues are closed and
  /// drained, its counters freeze, the decode is cancelled, and the other
  /// streams keep running (Section 9). 0 disables it (a hung source then
  /// blocks its stream until its decode returns).
  int stall_timeout_ms = 0;
  /// Per-frame behavior when a model call throws.
  DegradePolicy degrade_policy = DegradePolicy::kDrop;
  /// Consecutive transient SourceErrors retried (with exponential backoff)
  /// before the prefetch loop escalates to a source restart.
  int source_max_retries = 3;
  /// Governs the shared stages' model calls only (SDD distance, SNM/T-YOLO
  /// forward, reference segmentation). A call in flight for longer than
  /// this is cancelled by the watchdog: it unwinds via CancelledError at
  /// its next tile boundary, the frame follows degrade_policy, and the
  /// stage restarts under its budget (Section 14). 0 disables it (a wedged
  /// call then holds its stage until it returns).
  int model_call_timeout_ms = 0;

  // --- dynamic streams / cluster serving (DESIGN.md §15) -------------------
  /// Serve mode and its stream-slot capacity. 0 (default) keeps the classic
  /// single-shot batch contract: every stream is registered before run(),
  /// the set is fixed, and run() returns once the last stream drains.
  /// > 0 serves: run() reserves that many slots up front so a control plane
  /// (an ffsva_node serving hand-offs) can attach streams to the live
  /// engine with add_stream(), which fails once the reservation is
  /// exhausted; the stage workers stay alive when every stream has ended,
  /// waiting for more, until stop() is called.
  int max_streams = 0;

  // --- telemetry -----------------------------------------------------------
  /// Sampling period of the live metrics exporter (JSONL rows): queue
  /// depths, per-stage FPS, drop rates, supervision counters. Used when
  /// metrics export is enabled via FfsVaInstance::enable_metrics_export.
  int metrics_interval_ms = 100;

  // --- admission / re-forwarding (Section 4.3.1) ---------------------------
  /// Sustained T-YOLO service speed below this (FPS) for admit_window_sec
  /// means the instance has spare capacity for another stream.
  double admit_tyolo_fps = 140.0;
  double admit_window_sec = 5.0;

  /// Effective queue capacity for a stage given the policy: static batching
  /// runs without feedback, so its queues are effectively unbounded.
  int capacity(int threshold) const {
    return batch_policy == BatchPolicy::kStatic ? 4096 : threshold;
  }
};

}  // namespace ffsva::core
