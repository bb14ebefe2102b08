// The FFS-VA threaded pipeline engine (paper Sections 3.1.2 and 4.3).
//
// Stages are decoupled by bounded queues whose capacities are the paper's
// feedback-queue thresholds ({2, 10, 2}); a blocking push *is* the feedback
// throttle. The thread model scales with the host, not the stream count:
//
//  * one prefetch thread per stream (a camera / decoder is inherently
//    per-stream),
//  * a fixed-size SDD worker pool (config.sdd_workers, default the
//    FFSVA_THREADS compute parallelism) multiplexing every stream's SDD
//    queue on the CPU — per-stream FIFO order is preserved by a per-stream
//    claim token, so at most one worker serves a given stream at a time,
//  * ONE GPU0 executor thread that owns the device outright: it drains all
//    streams' SNM queues into cross-stream batches under the BatchPolicy
//    (the shared DynamicBatcher), routes each sub-batch to its stream's
//    SNM, and interleaves T-YOLO micro-batches under the round-robin
//    TYoloScheduler with the per-stream `num_tyolo` cap. Device
//    exclusivity holds by construction — no GPU0 mutex, no contention,
//  * one reference-model thread (GPU1) draining the survivors. Under
//    RefMode::kBatch it consumes ref_q in cross-stream micro-batches
//    (DynamicBatcher + detect_batch, work spread over the compute pool); under
//    RefMode::kCropPack it consolidates T-YOLO's candidate boxes from many
//    streams into mosaic canvases first (detect/crop_pack.hpp). Both keep
//    GPU1 single-owner and preserve per-stream FIFO order and the per-frame
//    drop-on-error contract.
//
// Stage workers sleep on QueueWaiter eventcounts wired to their input
// queues (runtime/bounded_queue.hpp) and are woken by queue activity — the
// engine has no polling loops.
//
// This engine is the *correctness* vehicle (end-to-end behaviour, ordering,
// no-loss, backpressure, accuracy); calibrated performance numbers come
// from the discrete-event simulator in src/sim, which runs the same policy
// objects (src/core/policies.hpp) under virtual time.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/policies.hpp"
#include "detect/specialize.hpp"
#include "runtime/annotations.hpp"
#include "runtime/bounded_queue.hpp"
#include "runtime/stats.hpp"
#include "runtime/supervision.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "video/source.hpp"

namespace ffsva::core {

/// A frame that survived the whole cascade, plus its reference-model result.
struct OutputEvent {
  video::Frame frame;
  detect::DetectionResult result;
  double latency_ms = 0.0;  ///< Ingest-to-output time.
};

/// Per-stream fault accounting (DESIGN.md Section 9). Faults are bounded,
/// observable events: every retry, restart, degraded frame, and quarantine
/// lands in exactly one of these counters.
struct FaultStats {
  std::uint64_t decode_errors = 0;    ///< SourceErrors raised by next().
  std::uint64_t retries = 0;          ///< Transient-error retries attempted.
  std::uint64_t restarts = 0;         ///< Source restarts attempted.
  std::uint64_t degraded_frames = 0;  ///< Frames a throwing model degraded.
  std::uint64_t discarded_frames = 0; ///< In-flight frames dumped by quarantine.
  std::uint64_t cancelled_calls = 0;  ///< Wedged calls the watchdog cancelled.
  std::uint64_t poisoned_frames = 0;  ///< Frames dropped after wedging two stages.
  bool quarantined = false;           ///< Stream was quarantined by the watchdog.

  bool any() const {
    return decode_errors || retries || restarts || degraded_frames ||
           discarded_frames || cancelled_calls || poisoned_frames || quarantined;
  }
};

/// Ingest accounting (DESIGN.md §13).
struct IngestStats {
  /// Frames fully reconstructed: every source frame is decoded, so this is
  /// prefetch.in, derived where a row is read or parsed.
  std::uint64_t decode_full = 0;
  double compression_ratio = 0.0;  ///< Source bitstream raw/encoded (0 = n/a).
  telemetry::HistogramSnapshot decode_ms;  ///< Decode-stage latency (per frame).
};

/// One stream's counters: the row snapshot() polls live, the wire carries
/// (DESIGN.md §15) and run() reports. Every field is read from a relaxed
/// atomic (or a mutex-guarded queue depth), so a mid-run row is internally
/// *approximate* — counters may be skewed by in-flight frames — and exact
/// once run() has returned. `latency_ms` and `ingest.decode_ms` are
/// report-only: run() fills them after the join, snapshot() leaves them
/// empty.
struct StreamStats {
  int id = 0;
  runtime::StageCounters prefetch;  ///< in = source frames, passed = ingested.
  runtime::StageCounters sdd;
  runtime::StageCounters snm;
  runtime::StageCounters tyolo;
  runtime::StageCounters ref;       ///< in = frames reaching reference model.
  std::uint64_t dropped_at_ingest = 0;
  /// Frames that reached a terminal outcome (emitted, dropped by a filter,
  /// dropped at ingest, discarded, or poisoned). Every ingested frame
  /// terminates exactly once, so `ingest_done && terminated == prefetch.in`
  /// is the stream-quiescent predicate a hand-off waits on (DESIGN.md §15).
  std::uint64_t terminated = 0;
  /// The stream's prefetch thread has exited (source ended, end_stream()
  /// cut, or fault escalation) — no further frames will be ingested.
  bool ingest_done = false;
  std::size_t sdd_queue_depth = 0;
  std::size_t snm_queue_depth = 0;
  std::size_t tyolo_queue_depth = 0;
  double ingest_fps = 0.0;          ///< Realized ingest rate (0 until ingest_done).
  IngestStats ingest;
  FaultStats fault;
  runtime::Histogram latency_ms;    ///< Terminal latency of every ingested frame.
};

/// Instance-level health rollup: how many streams finished clean, how many
/// saw (survivable) faults, how many the watchdog had to quarantine, plus
/// the supervision facts no stream counter holds. Per-frame fault totals
/// are aggregate().fault.
struct HealthSummary {
  int healthy_streams = 0;      ///< No fault counter ticked.
  int degraded_streams = 0;     ///< Faults observed, stream completed.
  int quarantined_streams = 0;  ///< Quarantined by the watchdog.
  /// Escalation counters (DESIGN.md Section 14): calls the watchdog
  /// cancelled (shared-stage calls past model_call_timeout_ms, and the
  /// decodes quarantine cancels) and stage restarts taken after a cancel.
  std::uint64_t cancels = 0;
  std::uint64_t stage_restarts = 0;
  bool stopped = false;  ///< stop() was requested.
};

/// The instance record: what snapshot() returns mid-run (the observable
/// state a control plane — the metrics exporter, ClusterManager
/// re-forwarding — polls) and what run() returns once every thread joined.
/// `wall_sec` and `total_throughput_fps` are report-only, like the
/// per-stream histograms.
struct InstanceStats {
  bool running = false;  ///< A run() is currently in flight.
  double t_sec = 0.0;    ///< Seconds since run() started (0 before).
  std::vector<StreamStats> streams;
  std::size_t ref_queue_depth = 0;
  std::uint64_t outputs = 0;          ///< Frames emitted by the reference stage.
  HealthSummary health;
  double wall_sec = 0.0;
  double total_throughput_fps = 0.0;  ///< Ingested frames / wall seconds.

  /// The stream rows summed, queue depths included.
  StreamStats aggregate() const;
  /// Total frames served by the T-YOLO stage across streams (the cluster
  /// admission signal: its rate of change is the T-YOLO service speed).
  std::uint64_t tyolo_served() const {
    std::uint64_t n = 0;
    for (const auto& s : streams) n += s.tyolo.in;
    return n;
  }
};

/// The stats-derived half of every exported metrics row, shared by the
/// engine and the simulator so both write one schema: the `<stage>.in`,
/// `<stage>.passed` and `drop.<stage>` counters of sdd/snm/tyolo/ref, and
/// every gauge (ingest, decode latency, fault, supervision and queue
/// depths). Appended to `host`, which holds what the host records on its
/// own, and sorted by name, like Registry::snapshot().
telemetry::MetricsSnapshot stats_metrics(const InstanceStats& snap,
                                         const telemetry::HistogramSnapshot& decode_ms,
                                         telemetry::MetricsSnapshot host = {});

class FfsVaInstance {
 public:
  explicit FfsVaInstance(FfsVaConfig config);
  ~FfsVaInstance();

  FfsVaInstance(const FfsVaInstance&) = delete;
  FfsVaInstance& operator=(const FfsVaInstance&) = delete;

  /// Register a stream. Before run() this is always legal (the classic
  /// contract). DURING run() it requires a serving engine
  /// (config.max_streams > 0) with a free slot: the stream is attached
  /// to the live engine — its prefetch thread starts immediately and the
  /// stage workers pick it up — which is how a node accepts a hand-off
  /// (DESIGN.md §15). Throws std::logic_error when the engine cannot accept
  /// the stream (run finished, stopping, or slots exhausted).
  /// Returns the engine-local stream id.
  int add_stream(std::unique_ptr<video::FrameSource> source,
                 detect::StreamModels models);

  /// Cut one stream's ingest: its prefetch loop winds down as if the source
  /// had ended, in-flight frames drain through the cascade normally, and the
  /// stream quiesces without disturbing any other stream or the run. The
  /// first half of a hand-off — poll stream_quiesced() for the second.
  /// Idempotent; safe on an ended stream. Throws std::out_of_range on an
  /// unknown id.
  void end_stream(int stream_id);

  /// True once the stream has fully quiesced: its prefetch thread exited
  /// and every ingested frame reached a terminal outcome (emitted or
  /// dropped — nothing in flight). Exact, not approximate: the terminal
  /// counter is ticked after the frame's outcome is durable, so a true
  /// return means the stream's results are complete and stable.
  bool stream_quiesced(int stream_id) const;

  /// The one output path: a sink invoked (from the reference-model thread)
  /// for every surviving frame. Without a sink an output is counted
  /// (ref.passed) and not kept. Call before run().
  void set_output_sink(std::function<void(const OutputEvent&)> sink);

  /// Process every stream to completion.
  /// online=true paces each stream's ingest at config.online_fps and drops
  /// frames when the SDD queue stays full (overload); online=false runs
  /// flat out (offline analysis of stored video).
  ///
  /// Single-shot: a second invocation throws std::logic_error (the engine's
  /// queues and counters are consumed by a run). An instance with no
  /// registered streams throws std::invalid_argument — unless it serves
  /// (config.max_streams > 0), in which case an empty engine starts, waits
  /// for add_stream(), and serves until stop().
  InstanceStats run(bool online);

  /// The one way to end a run early: request a graceful shutdown of an
  /// in-flight run() from any thread (a caller that wants a deadline calls
  /// it from its own timer). Ingest stops, in-flight frames drain, run()
  /// returns with the stats accumulated so far. Idempotent; safe before,
  /// during, or after run(). With supervision armed, run() returns in
  /// bounded time even when a call is hung: a wedged shared-stage call is
  /// cancelled (config.model_call_timeout_ms) and a hung decode's stream
  /// quarantined (config.stall_timeout_ms) — quarantine cancels the
  /// in-flight decode, so every prefetch thread is joined, never detached.
  void stop();

  const FfsVaConfig& config() const { return config_; }
  /// Streams registered so far (monotonic; grows under dynamic add). The
  /// acquire load pairs with add_stream's release publish, so any index
  /// below the returned count reads a fully constructed stream.
  int num_streams() const {
    return nstreams_.load(std::memory_order_acquire);
  }

  // --- live telemetry ------------------------------------------------------

  /// Thread-safe live snapshot: callable from any thread before, during, or
  /// after run(). Mid-run values are relaxed-atomic reads (see
  /// StreamStats); after run() returns they match run()'s report minus its
  /// report-only fields. Allocates only the stream rows.
  InstanceStats snapshot() const;

  /// The instance's metrics registry: the executor/reference counters and
  /// histograms the stage threads record into, plus any gauges a host
  /// registers (NodeServer's node.* / net.*). Stage and fault counts are not
  /// in it — they live in the stream atomics snapshot() reads.
  telemetry::Registry& metrics() { return metrics_; }

  /// What the exporter samples: stats_metrics() over one snapshot() and
  /// the live decode histograms, on top of the registry snapshot (the
  /// executor.* and ref.* counters and the histograms). Thread-safe;
  /// mid-run values are approximate (see StreamStats).
  telemetry::MetricsSnapshot metrics_snapshot() const;

  /// Sample metrics_snapshot() every config.metrics_interval_ms during run() and
  /// append JSONL rows to `path` (append mode). Call before run(); false if
  /// the file cannot be opened (export then stays off).
  bool enable_metrics_export(const std::string& path, std::string label = {});
  /// Same, into a caller-owned stream that must outlive run().
  void enable_metrics_export(std::ostream* sink, std::string label = {});

  /// Stamp exported metrics rows with a cluster node id (DESIGN.md §15).
  /// Call before run(); negative (the default) omits the field.
  void set_metrics_node_id(int id) { exporter_.set_node_id(id); }

  /// Arm per-stage trace spans for the next run() (recorded into
  /// telemetry::TraceBuffer::global(); enabling resets that buffer). Export
  /// with export_trace() after run() returns.
  void enable_tracing(bool on = true) { tracing_requested_ = on; }

  /// Write the spans recorded by the last traced run() as chrome://tracing
  /// JSON. Call after run() returns (spans are exact once stages quiesce).
  bool export_trace(const std::string& path) const;

 private:
  struct Stream;
  /// A frame in flight, stamped with its ingest time.
  struct Item {
    video::Frame frame;
    std::chrono::steady_clock::time_point ingest;
    /// Stages this frame wedged (its model call was cancelled by the
    /// watchdog). A frame that wedges two stages is poisoned: it is dropped
    /// regardless of the degrade policy, so one pathological input cannot
    /// keep restarting stage after stage (DESIGN.md Section 14).
    int wedges = 0;
  };
  /// A survivor bound for the reference stage: the frame plus the candidate
  /// boxes T-YOLO detected in it (frame coordinates). The candidates are
  /// what RefMode::kCropPack consolidates; an empty list (e.g. a
  /// kBypass-degraded frame that was never actually detected) routes the
  /// frame to the full-frame fallback, so it is still fully vetted.
  struct RefEntry {
    int stream = 0;
    Item item;
    std::vector<image::Box> candidates;
  };

  /// Static + shared_ptr: the prefetch loop touches only the Stream it
  /// co-owns (and, through it, the registry handles every stage records
  /// into), never `this`. The thread is always joined before run() returns
  /// — a wedged decode is un-wedged by cancellation (quarantine cancels the
  /// stream's in-flight call).
  static void prefetch_loop(std::shared_ptr<Stream> s, bool online);

  /// The stage restart policy of DESIGN.md Section 14, shared by every
  /// stage thread: `loop(allow_restart)` returning false was unwound by a
  /// watchdog cancel (on `call`) and re-enters after a sliced backoff, up to
  /// kStageMaxRestarts times; past the budget the loop handles further
  /// cancels inline (degrade the frame, keep serving) and never requests a
  /// restart. Loops return true when their work is finished.
  void run_stage(runtime::InflightCall& call, const std::function<bool(bool)>& loop);
  bool sdd_worker_loop(int worker, bool allow_restart);
  bool gpu0_loop(bool allow_restart);
  /// `pending` lives in the reference thread's run_stage caller so entries
  /// already popped from ref_q survive a stage restart (per-stream FIFO and
  /// conservation hold through the unwind).
  bool reference_loop(bool allow_restart, std::vector<RefEntry>& pending);

  /// The watchdog tick: one response per kind of in-flight call — a
  /// shared-stage call past model_call_timeout_ms is cancelled, a decode
  /// past stall_timeout_ms quarantines its stream. Runs on the watchdog
  /// thread.
  void supervise();
  void quarantine(Stream& s);
  /// Cancel `call` if it has been in flight longer than `timeout_ms` (-1:
  /// whatever is in flight), counting the cancel on the instance and on
  /// the stream the call was serving.
  void cancel_overrun(runtime::InflightCall& call, std::int64_t now_ms,
                      std::int64_t timeout_ms);

  /// Cache the hot-path counter/histogram handles in `hot_`.
  void wire_metrics();

  FfsVaConfig config_;
  /// Stream slots. Append-only; capacity is reserved up front in run() when
  /// dynamic add is configured (config.max_streams), so a mid-run push_back
  /// never reallocates and never invalidates the pointers stage threads
  /// hold. Readers never consult the vector's size — they bound every scan
  /// by num_streams() (the release/acquire-published count), which is what
  /// makes a concurrent append invisible until fully constructed. Writes
  /// are serialized on streams_mu_.
  std::vector<std::shared_ptr<Stream>> streams_;
  std::atomic<int> nstreams_{0};
  /// Serializes add_stream/end_stream/stop against each other and guards
  /// the dynamic-add state below. Ordered before the queue leaves: stop()'s
  /// close sweep and add_stream's waiter notifies run under it.
  mutable runtime::Mutex streams_mu_{runtime::rank::kEngineStreams,
                                     "core::Engine::streams_mu_"};
  /// True from just before the stage threads start until they are joined:
  /// the window in which add_stream attaches to the live engine.
  bool engine_live_ FFSVA_GUARDED_BY(streams_mu_) = false;
  bool run_online_ FFSVA_GUARDED_BY(streams_mu_) = false;
  /// Prefetch threads of streams added during run(); joined by run() after
  /// the stage threads exit (every one has wound down by then — stop()
  /// closed the ingest queues).
  // thread-ok: per-stream prefetch threads attached mid-run; always joined
  // by run() before it returns (see above).
  std::vector<std::thread> late_prefetch_ FFSVA_GUARDED_BY(streams_mu_);
  std::function<void(const OutputEvent&)> sink_;

  // Multi-queue wakeups: SDD workers sleep here when every SDD queue is
  // empty or claimed; the GPU0 executor sleeps here when no SNM batch is
  // ready and no T-YOLO work is queued. GPU0 needs no mutex — the executor
  // thread owns it; the reference model (GPU1) is owned by its one thread.
  // Plain members: every thread that notifies them (including each
  // prefetch thread) is joined before the instance is destroyed.
  runtime::QueueWaiter sdd_work_;
  runtime::QueueWaiter gpu0_work_;

  // Supervision state.
  runtime::StopToken stop_;
  std::atomic<bool> run_called_{false};
  /// Escalation totals (DESIGN.md Section 14) with no per-stream home:
  /// watchdog cancels (also attributed per stream) and stage restarts.
  std::atomic<std::uint64_t> cancels_{0};
  std::atomic<std::uint64_t> stage_restarts_{0};
  /// In-flight model-call registration slots, one per worker thread that
  /// runs model calls (SDD pool workers, the GPU0 executor, the reference
  /// thread; each Stream holds its prefetch slot). The watchdog reads their
  /// busy ages and cancels exactly the wedged call.
  std::vector<runtime::InflightCall> sdd_call_;
  runtime::InflightCall gpu0_call_;
  runtime::InflightCall ref_call_;

  /// Every stream's T-YOLO survivors, bound for the reference stage.
  runtime::BoundedQueue<RefEntry> ref_q_;

  // Telemetry. The registry lives in the instance; every stage thread —
  // prefetch included — joins before run() returns, so instance lifetime
  // covers every recorder. Frame, ingest and fault counts live only in
  // Stream atomics; the exporter reads them through metrics_snapshot().
  telemetry::Registry metrics_;
  std::ostream* metrics_sink_ = nullptr;
  std::string metrics_path_;
  std::string metrics_label_;
  bool tracing_requested_ = false;
  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> run_t0_ns_{0};
  /// Declared after everything metrics_snapshot() reads: its sampler thread
  /// (stopped by run(), or at the latest by its destructor) never outlives
  /// them.
  telemetry::MetricsExporter exporter_{[this] { return metrics_snapshot(); }};

  /// The four stages of the cascade, in order; indexes every per-stage
  /// table (stream counters, terminal fates).
  enum StageId : int { kSdd, kSnm, kTyolo, kRef, kNumStages };

  /// Hot-path handles, resolved once in wire_metrics() so stage loops never
  /// touch the registry map. Each Stream points at this struct, so every
  /// thread that finishes a frame — prefetch included — records into the
  /// same registry.
  struct Hot {
    telemetry::Counter* snm_batches = nullptr;
    telemetry::Counter* tyolo_picks = nullptr;
    telemetry::AtomicHistogram* batch_size = nullptr;
    telemetry::AtomicHistogram* tyolo_take = nullptr;
    telemetry::AtomicHistogram* output_latency_ms = nullptr;
    // GPU1 reference-stage batching/consolidation.
    telemetry::Counter* ref_batches = nullptr;
    telemetry::AtomicHistogram* ref_batch_size = nullptr;  ///< Occupancy.
    telemetry::AtomicHistogram* crops_per_mosaic = nullptr;
    telemetry::AtomicHistogram* mosaic_fill = nullptr;
    telemetry::Counter* ref_full_frame = nullptr;
    telemetry::Counter* ref_seam_suppressed = nullptr;
    /// Ingest-to-drop latency of frames the reference stage dropped and of
    /// frames discarded anywhere — kept OUT of latency.output_ms so the
    /// output distribution describes only emitted frames.
    telemetry::AtomicHistogram* latency_drop_ms = nullptr;
    /// Time from a watchdog cancel to the affected stage serving again
    /// (after its restart backoff) — the time-to-recovery distribution of
    /// the escalation path (DESIGN.md Section 14).
    telemetry::AtomicHistogram* recovery_ms = nullptr;
  };
  Hot hot_;
};

}  // namespace ffsva::core
