// relaxed-ok: per-stream frame/fault counters are single-logical-writer
// cells snapshotted mid-run (approximate by contract) and frozen after the
// stage joins; the claim/quarantine edges that need ordering use acq_rel —
// see the Stream struct comments below.
#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "detect/crop_pack.hpp"
#include "detect/sdd.hpp"
#include "runtime/bounded_queue.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/rate_limiter.hpp"
#include "runtime/stopwatch.hpp"
#include "telemetry/spans.hpp"

namespace ffsva::core {

namespace {
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

telemetry::TraceBuffer& trace() { return telemetry::TraceBuffer::global(); }

// Supervision budgets (DESIGN.md Sections 9 and 14).
constexpr int kSourceMaxRestarts = 2;  ///< Source restarts before a stream ends.
constexpr int kStageMaxRestarts = 3;   ///< Restarts per stage thread.
/// Queue threshold of the reference-stage drain under BatchPolicy::kFeedback
/// (the analogue of snm_queue_depth); ref_queue_depth stays the capacity.
constexpr int kRefQueueThreshold = 16;
/// Frames one SDD worker processes from a claimed stream before rescanning:
/// bounds how long a busy stream can monopolize a worker when streams
/// outnumber workers.
constexpr int kSddRunLength = 32;

/// How a frame's trip through the cascade ended. The first four values mean
/// "dropped by that stage" and share StageId's numbering; every ingested
/// frame reaches exactly one fate.
enum class Fate : std::uint8_t {
  kDropSdd,
  kDropSnm,
  kDropTyolo,
  kDropRef,
  kEmit,        ///< Vetted by the reference model and delivered.
  kDiscard,     ///< Dumped by quarantine, or its next queue closed under it.
  kIngestLoss,  ///< A live frame the full ingest buffer could not absorb.
};

/// How a guarded model call ended.
enum class Call : std::uint8_t { kOk, kCancelled, kThrew };

/// Runs one model call under the watchdog's eyes: the call is registered
/// in `slot` for its duration, so its busy age is the stall clock and a
/// wedge can be attributed to {stream, frame} and cancelled.
template <class Fn>
Call guarded_call(runtime::InflightCall& slot, int stream, std::int64_t frame,
                  Fn&& fn) {
  try {
    runtime::ModelCallGuard guard(slot, stream, frame);
    fn();
  } catch (const runtime::CancelledError&) {
    return Call::kCancelled;
  } catch (...) {
    return Call::kThrew;
  }
  return Call::kOk;
}

/// Exponential backoff before a retry or restart: 1 ms doubled per attempt,
/// capped at 100 ms, slept in 1 ms slices so `aborted()` ends it promptly.
template <class Abort>
void sliced_backoff(int attempt, const Abort& aborted) {
  const auto ms = std::min<std::int64_t>(std::int64_t{1} << std::min(attempt, 20), 100);
  const auto until = Clock::now() + std::chrono::milliseconds(ms);
  while (Clock::now() < until && !aborted()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}
}  // namespace

const char* to_string(BatchPolicy p) {
  switch (p) {
    case BatchPolicy::kStatic: return "static";
    case BatchPolicy::kFeedback: return "feedback";
    case BatchPolicy::kDynamic: return "dynamic";
  }
  return "?";
}

const char* to_string(DegradePolicy p) {
  switch (p) {
    case DegradePolicy::kDrop: return "drop";
    case DegradePolicy::kBypass: return "bypass";
  }
  return "?";
}

const char* to_string(RefMode m) {
  switch (m) {
    case RefMode::kBatch: return "batch";
    case RefMode::kCropPack: return "crop_pack";
  }
  return "?";
}

StreamStats InstanceStats::aggregate() const {
  StreamStats agg;
  for (const auto& s : streams) {
    agg.prefetch += s.prefetch;
    agg.sdd += s.sdd;
    agg.snm += s.snm;
    agg.tyolo += s.tyolo;
    agg.ref += s.ref;
    agg.dropped_at_ingest += s.dropped_at_ingest;
    agg.terminated += s.terminated;
    agg.sdd_queue_depth += s.sdd_queue_depth;
    agg.snm_queue_depth += s.snm_queue_depth;
    agg.tyolo_queue_depth += s.tyolo_queue_depth;
    agg.latency_ms.merge(s.latency_ms);
    agg.ingest_fps += s.ingest_fps;
    agg.ingest.decode_full += s.ingest.decode_full;
    agg.ingest.compression_ratio =
        std::max(agg.ingest.compression_ratio, s.ingest.compression_ratio);
    agg.ingest.decode_ms.merge(s.ingest.decode_ms);
    agg.fault.decode_errors += s.fault.decode_errors;
    agg.fault.retries += s.fault.retries;
    agg.fault.restarts += s.fault.restarts;
    agg.fault.degraded_frames += s.fault.degraded_frames;
    agg.fault.discarded_frames += s.fault.discarded_frames;
    agg.fault.cancelled_calls += s.fault.cancelled_calls;
    agg.fault.poisoned_frames += s.fault.poisoned_frames;
    agg.fault.quarantined = agg.fault.quarantined || s.fault.quarantined;
  }
  return agg;
}

struct FfsVaInstance::Stream {
  int id = 0;
  std::unique_ptr<video::FrameSource> source;
  detect::StreamModels models;
  FfsVaConfig cfg;  ///< Copy: the prefetch loop reads config without touching `this`.
  /// The instance's registry handles; filled by wire_metrics() before any
  /// thread that records through them starts.
  const Hot* hot = nullptr;

  runtime::BoundedQueue<Item> sdd_q;
  runtime::BoundedQueue<Item> snm_q;
  runtime::BoundedQueue<Item> tyolo_q;

  /// Everything the prefetch thread writes lives here as relaxed atomics:
  /// snapshot() reads them mid-run (approximate by contract) and exactly
  /// once the thread is joined.
  std::atomic<std::uint64_t> prefetch_in{0};
  std::atomic<std::uint64_t> prefetch_passed{0};
  std::atomic<std::uint64_t> dropped_ingest{0};
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<double> ingest_wall_sec{0.0};

  /// Decode-stage latency. AtomicHistogram (not runtime::Histogram):
  /// metrics_snapshot() reads it live while the prefetch thread records, so
  /// recording must be lock-free and thread-safe.
  telemetry::AtomicHistogram decode_ms;

  /// Degrade / quarantine accounting, written by whichever stage thread
  /// observes the event (SDD worker, GPU0 executor, reference thread).
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> discarded{0};
  std::atomic<bool> quarantined{false};

  /// Hand-off support (DESIGN.md §15). `ingest_end` is the end_stream()
  /// cut: the prefetch loop treats it as end-of-source at its next
  /// iteration. `ingest_done` is set (once) when the prefetch loop exits.
  /// `terminated` ticks exactly once per ingested frame, in finish(), after
  /// the frame's outcome is durable — `ingest_done && terminated ==
  /// prefetch_in` is the quiescence predicate stream_quiesced() answers.
  std::atomic<bool> ingest_end{false};
  std::atomic<bool> ingest_done{false};
  std::atomic<std::uint64_t> terminated{0};

  /// Escalation accounting (DESIGN.md Section 14): model calls serving this
  /// stream that the watchdog cancelled (written by the watchdog thread)
  /// and frames of this stream dropped as poisoned after wedging two
  /// stages (written by the stage thread that observed the second wedge).
  std::atomic<std::uint64_t> cancels{0};
  std::atomic<std::uint64_t> poisoned{0};

  /// The decode currently in flight on this stream's prefetch thread. Its
  /// busy age is the stream's stall clock — blocking on a full queue
  /// between calls reads as idle. Only quarantine cancels it (a decode past
  /// stall_timeout_ms) — that cancel is what makes the prefetch join
  /// bounded (the thread is joined, never detached).
  runtime::InflightCall prefetch_call;

  /// Per-stage frame counters, indexed by StageId, as relaxed atomics so
  /// snapshot() can read them while the stage threads run. Each is still
  /// written by one logical owner at a time (SDD claim holder / GPU0
  /// executor / reference thread); the atomics buy mid-run readability,
  /// not write coordination.
  std::atomic<std::uint64_t> in[kNumStages]{};
  std::atomic<std::uint64_t> passed[kNumStages]{};

  runtime::StopToken stop;  ///< Copy of the instance token.

  /// SDD worker-pool coordination: at most one worker serves this stream at
  /// a time (claim), which both preserves per-stream FIFO order into the
  /// SNM queue and serializes access to the SDD counters/histogram. The
  /// acq_rel claim handoff carries the happens-before edge between
  /// consecutive owners. `sdd_done` is set (exactly once, under the claim)
  /// when the SDD queue is closed and drained.
  std::atomic<bool> sdd_claimed{false};
  std::atomic<bool> sdd_done{false};

  /// Terminal latency by fate, kDropSdd..kEmit. Each is written by exactly
  /// one logical owner (SDD claim holder / GPU0 executor / reference
  /// thread) and merged into StreamStats::latency_ms after the
  /// stage threads are joined — stages on different threads must not share
  /// one histogram. Reference-stage drops stay out of the emitted-frame
  /// distribution; discards and ingest losses record none.
  runtime::Histogram lat[static_cast<int>(Fate::kEmit) + 1];

  Stream(int id_, std::unique_ptr<video::FrameSource> src, detect::StreamModels m,
         const FfsVaConfig& cfg_)
      : id(id_), source(std::move(src)), models(std::move(m)), cfg(cfg_),
        // Offline capacity until attach() fixes it for the run's mode.
        sdd_q(static_cast<std::size_t>(cfg_.capacity(cfg_.sdd_queue_depth))),
        snm_q(static_cast<std::size_t>(cfg_.capacity(cfg_.snm_queue_depth))),
        tyolo_q(static_cast<std::size_t>(cfg_.capacity(cfg_.tyolo_queue_depth))) {}

  /// Pre-thread setup for a run in `online` mode: wire the stage wakeups
  /// and size the SDD queue. Online it is the live-capture ring buffer that
  /// absorbs bursts without blocking the camera; offline it is the paper's
  /// SDD feedback threshold the decoder stalls on. Both calls are
  /// unsynchronized by contract, so this runs before the stream is visible
  /// to any stage thread.
  void attach(bool online, runtime::QueueWaiter* sdd_work,
              runtime::QueueWaiter* gpu0_work) {
    sdd_q.set_waiter(sdd_work);
    snm_q.set_waiter(gpu0_work);
    sdd_q.set_capacity(static_cast<std::size_t>(
        online ? std::max(1, cfg.ingest_buffer) : cfg.capacity(cfg.sdd_queue_depth)));
  }

  /// A frame enters stage `st`.
  void enter(StageId st) { in[st].fetch_add(1, std::memory_order_relaxed); }

  /// Verdict for a frame whose model call failed (DESIGN.md Sections 9 and
  /// 14). A cancelled call wedges the frame, and a second wedge poisons it:
  /// dropped whatever the policy. Otherwise the frame is degraded and
  /// follows degrade_policy — unless `may_bypass` is false (the reference
  /// model, the last vetting stage, never passes an unvetted frame).
  bool fault_verdict(Item& item, Call outcome, bool may_bypass) {
    if (outcome == Call::kCancelled && ++item.wedges >= 2) {
      poisoned.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    degraded.fetch_add(1, std::memory_order_relaxed);
    return may_bypass && cfg.degrade_policy == DegradePolicy::kBypass;
  }

  /// The one place a frame's trip ends: counts the fate on the stream,
  /// records its latency, then ticks `terminated` — last, so a quiesced
  /// stream's accounting (and, for kEmit, delivery) is final. A filter drop
  /// needs no counter of its own: it is the stage's `in - passed`.
  void finish(Fate fate, double ms) {
    static_assert(static_cast<int>(Fate::kDropRef) == kRef);
    const auto f = static_cast<std::size_t>(fate);
    switch (fate) {
      case Fate::kDropSdd:
      case Fate::kDropSnm:
      case Fate::kDropTyolo:
        break;
      case Fate::kDropRef:
        hot->latency_drop_ms->record(ms);
        break;
      case Fate::kEmit:
        passed[kRef].fetch_add(1, std::memory_order_relaxed);
        hot->output_latency_ms->record(ms);
        break;
      case Fate::kDiscard:
        discarded.fetch_add(1, std::memory_order_relaxed);
        hot->latency_drop_ms->record(ms);
        break;
      case Fate::kIngestLoss:
        dropped_ingest.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    if (fate <= Fate::kEmit) lat[f].add(ms);
    terminated.fetch_add(1, std::memory_order_release);
  }
  void finish(Fate fate, const Item& item) { finish(fate, ms_since(item.ingest)); }

  /// Ends a frame's visit to filter `st`: a dropped frame finishes here; a
  /// survivor is counted as passed and handed to `push`, and is discarded
  /// if that hand-off fails (the next queue closed under it). A failed push
  /// moves only the frame out, so the ingest stamp stays readable. Returns
  /// false only on that failed hand-off.
  template <class Push>
  bool route(StageId st, bool pass, Item& item, Push&& push) {
    if (!pass) {
      finish(static_cast<Fate>(st), item);
      return true;
    }
    passed[st].fetch_add(1, std::memory_order_relaxed);
    if (push(item)) return true;
    finish(Fate::kDiscard, item);
    return false;
  }

  /// Reads every counter into a stats row: mid-run approximate, exact once
  /// the stage threads are joined. The report-only histograms stay empty.
  StreamStats read() const {
    const auto ld = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    StreamStats ss;
    ss.id = id;
    ss.terminated = ld(terminated);
    ss.ingest_done = ingest_done.load(std::memory_order_acquire);
    ss.prefetch = {ld(prefetch_in), ld(prefetch_passed)};
    ss.dropped_at_ingest = ld(dropped_ingest);
    runtime::StageCounters* stage[kNumStages] = {&ss.sdd, &ss.snm, &ss.tyolo, &ss.ref};
    for (int st = 0; st < kNumStages; ++st) *stage[st] = {ld(in[st]), ld(passed[st])};
    ss.sdd_queue_depth = sdd_q.depth();
    ss.snm_queue_depth = snm_q.depth();
    ss.tyolo_queue_depth = tyolo_q.depth();
    const double iw = ingest_wall_sec.load(std::memory_order_relaxed);
    if (iw > 0.0) ss.ingest_fps = static_cast<double>(ss.prefetch.passed) / iw;
    ss.ingest.decode_full = ss.prefetch.in;  // every source frame is decoded
    if (const auto cs = source->codec_stats()) {
      ss.ingest.compression_ratio = cs->compression_ratio();
    }
    ss.fault.decode_errors = ld(decode_errors);
    ss.fault.retries = ld(retries);
    ss.fault.restarts = ld(restarts);
    ss.fault.degraded_frames = ld(degraded);
    ss.fault.discarded_frames = ld(discarded);
    ss.fault.cancelled_calls = ld(cancels);
    ss.fault.poisoned_frames = ld(poisoned);
    ss.fault.quarantined = quarantined.load(std::memory_order_acquire);
    return ss;
  }
};

FfsVaInstance::FfsVaInstance(FfsVaConfig config)
    : config_(config),
      ref_q_(static_cast<std::size_t>(config.capacity(config.ref_queue_depth))) {}

FfsVaInstance::~FfsVaInstance() = default;

int FfsVaInstance::add_stream(std::unique_ptr<video::FrameSource> source,
                              detect::StreamModels models) {
  runtime::MutexLock lk(streams_mu_);
  const int id = nstreams_.load(std::memory_order_relaxed);
  auto s = std::make_shared<Stream>(id, std::move(source), std::move(models),
                                    config_);
  s->hot = &hot_;
  s->stop = stop_;
  if (!run_called_.load(std::memory_order_acquire)) {
    // Classic pre-run registration: single caller, no stage threads yet.
    streams_.push_back(std::move(s));
    nstreams_.store(id + 1, std::memory_order_release);
    return id;
  }
  // Dynamic attach to a live engine (DESIGN.md §15).
  if (!engine_live_ || stop_.stop_requested()) {
    throw std::logic_error(
        "FfsVaInstance::add_stream: engine is not accepting streams "
        "(run finished or stopping)");
  }
  if (config_.max_streams <= 0 ||
      static_cast<std::size_t>(id) >= streams_.capacity()) {
    throw std::logic_error(
        "FfsVaInstance::add_stream: mid-run add needs a free "
        "config.max_streams slot");
  }
  // Same pre-thread setup run() performs for the initial streams.
  s->attach(run_online_, &sdd_work_, &gpu0_work_);
  std::shared_ptr<Stream> sp = s;
  // Publish: capacity is reserved, so push_back cannot reallocate; the
  // release store pairs with num_streams()' acquire load, making the new
  // slot visible to stage scans only once fully constructed.
  streams_.push_back(std::move(s));
  nstreams_.store(id + 1, std::memory_order_release);
  late_prefetch_.emplace_back(&FfsVaInstance::prefetch_loop, std::move(sp),
                              run_online_);
  // Wake stage workers parked on "every stream done" in serve mode.
  sdd_work_.notify();
  gpu0_work_.notify();
  return id;
}

void FfsVaInstance::end_stream(int stream_id) {
  runtime::MutexLock lk(streams_mu_);
  if (stream_id < 0 || stream_id >= nstreams_.load(std::memory_order_acquire)) {
    throw std::out_of_range("FfsVaInstance::end_stream: unknown stream id");
  }
  Stream& s = *streams_[static_cast<std::size_t>(stream_id)];
  s.ingest_end.store(true, std::memory_order_release);
}

bool FfsVaInstance::stream_quiesced(int stream_id) const {
  if (stream_id < 0 || stream_id >= num_streams()) {
    throw std::out_of_range("FfsVaInstance::stream_quiesced: unknown stream id");
  }
  const Stream& s = *streams_[static_cast<std::size_t>(stream_id)];
  if (!s.ingest_done.load(std::memory_order_acquire)) return false;
  // ingest_done is set after the prefetch loop's last counter write, and
  // every terminal tick happens after the outcome it records — so once the
  // two counters agree the stream's results are complete and stable.
  return s.terminated.load(std::memory_order_acquire) >=
         s.prefetch_in.load(std::memory_order_acquire);
}

void FfsVaInstance::set_output_sink(std::function<void(const OutputEvent&)> sink) {
  sink_ = std::move(sink);
}

bool FfsVaInstance::enable_metrics_export(const std::string& path,
                                          std::string label) {
  // Validate the sink now (enable is the caller's error boundary); the
  // exporter reopens in append mode when run() starts.
  std::ofstream probe(path, std::ios::app);
  if (!probe) return false;
  probe.close();
  metrics_path_ = path;
  metrics_sink_ = nullptr;
  metrics_label_ = std::move(label);
  return true;
}

void FfsVaInstance::enable_metrics_export(std::ostream* sink,
                                          std::string label) {
  metrics_sink_ = sink;
  metrics_path_.clear();
  metrics_label_ = std::move(label);
}

bool FfsVaInstance::export_trace(const std::string& path) const {
  return trace().write_chrome_trace(path);
}

void FfsVaInstance::wire_metrics() {
  hot_.snm_batches = &metrics_.counter("executor.snm_batches");
  hot_.tyolo_picks = &metrics_.counter("executor.tyolo_picks");
  hot_.batch_size = &metrics_.histogram("executor.batch_size");
  hot_.tyolo_take = &metrics_.histogram("executor.tyolo_take");
  hot_.output_latency_ms = &metrics_.histogram("latency.output_ms");
  hot_.ref_batches = &metrics_.counter("executor.ref_batches");
  hot_.ref_batch_size = &metrics_.histogram("executor.ref_batch_size");
  hot_.crops_per_mosaic = &metrics_.histogram("ref.crops_per_mosaic");
  hot_.mosaic_fill = &metrics_.histogram("ref.mosaic_fill");
  hot_.ref_full_frame = &metrics_.counter("ref.full_frame_fallbacks");
  hot_.ref_seam_suppressed = &metrics_.counter("ref.seam_suppressed");
  hot_.latency_drop_ms = &metrics_.histogram("latency.drop_ms");
  hot_.recovery_ms = &metrics_.histogram("latency.recovery_ms");
}

InstanceStats FfsVaInstance::snapshot() const {
  InstanceStats snap;
  snap.running = running_.load(std::memory_order_acquire);
  const std::int64_t t0 = run_t0_ns_.load(std::memory_order_relaxed);
  if (t0 > 0) {
    const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now().time_since_epoch())
                         .count();
    snap.t_sec = static_cast<double>(now - t0) * 1e-9;
  }
  HealthSummary& h = snap.health;
  const int n = num_streams();
  snap.streams.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const StreamStats& ss =
        snap.streams.emplace_back(streams_[static_cast<std::size_t>(i)]->read());
    if (ss.fault.quarantined) {
      ++h.quarantined_streams;
    } else if (ss.fault.any()) {
      ++h.degraded_streams;
    } else {
      ++h.healthy_streams;
    }
    snap.outputs += ss.ref.passed;
  }
  snap.ref_queue_depth = ref_q_.depth();
  h.cancels = cancels_.load(std::memory_order_relaxed);
  h.stage_restarts = stage_restarts_.load(std::memory_order_relaxed);
  h.stopped = stop_.stop_requested();
  return snap;
}

telemetry::MetricsSnapshot stats_metrics(const InstanceStats& snap,
                                         const telemetry::HistogramSnapshot& decode_ms,
                                         telemetry::MetricsSnapshot host) {
  const StreamStats agg = snap.aggregate();
  const std::pair<const char*, const runtime::StageCounters*> stages[] = {
      {"sdd", &agg.sdd}, {"snm", &agg.snm}, {"tyolo", &agg.tyolo}, {"ref", &agg.ref}};
  for (const auto& [stage, c] : stages) {
    const std::string name = stage;
    host.counters.emplace_back(name + ".in", c->in);
    host.counters.emplace_back(name + ".passed", c->passed);
    host.counters.emplace_back("drop." + name, c->filtered());  // saturating
  }

  const HealthSummary& h = snap.health;
  const auto& f = agg.fault;
  const auto d = [](auto v) { return static_cast<double>(v); };
  host.gauges.insert(host.gauges.end(), {
      {"prefetch.in", d(agg.prefetch.in)},
      {"prefetch.passed", d(agg.prefetch.passed)},
      {"drop.ingest", d(agg.dropped_at_ingest)},
      {"latency.decode_p50_ms", decode_ms.count ? decode_ms.quantile(0.5) : 0.0},
      {"latency.decode_p99_ms", decode_ms.count ? decode_ms.quantile(0.99) : 0.0},
      {"fault.decode_errors", d(f.decode_errors)},
      {"fault.retries", d(f.retries)},
      {"fault.restarts", d(f.restarts)},
      {"fault.degraded_frames", d(f.degraded_frames)},
      {"fault.discarded_frames", d(f.discarded_frames)},
      {"fault.cancelled_calls", d(f.cancelled_calls)},
      {"fault.poisoned_frames", d(f.poisoned_frames)},
      {"streams.quarantined", d(h.quarantined_streams)},
      {"supervision.cancels", d(h.cancels)},
      {"supervision.stage_restarts", d(h.stage_restarts)},
      {"queue.sdd", d(agg.sdd_queue_depth)},
      {"queue.snm", d(agg.snm_queue_depth)},
      {"queue.tyolo", d(agg.tyolo_queue_depth)},
      {"queue.ref", d(snap.ref_queue_depth)},
  });

  const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(host.counters.begin(), host.counters.end(), by_name);
  std::sort(host.gauges.begin(), host.gauges.end(), by_name);
  return host;
}

telemetry::MetricsSnapshot FfsVaInstance::metrics_snapshot() const {
  telemetry::MetricsSnapshot m = metrics_.snapshot();
  const InstanceStats snap = snapshot();
  // The decode histograms are read live here rather than through
  // snapshot(), which would copy them on every poll.
  telemetry::HistogramSnapshot decode;
  for (const StreamStats& ss : snap.streams) {
    decode.merge(streams_[static_cast<std::size_t>(ss.id)]->decode_ms.snapshot());
  }
  return stats_metrics(snap, decode, std::move(m));
}

void FfsVaInstance::stop() {
  stop_.request_stop();
  // Closing the ingest queues unblocks every prefetch thread (a blocked
  // push fails fast on a closed queue); the close cascades down the stages
  // as each drains, so in-flight frames still complete. Serialized on
  // streams_mu_ against add_stream: a stream either publishes before this
  // close sweep (and is closed here) or its add observes stop_requested and
  // is rejected — no stream can miss the close.
  {
    runtime::MutexLock lk(streams_mu_);
    const int n = nstreams_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      streams_[static_cast<std::size_t>(i)]->sdd_q.close();
    }
  }
  // Wake stage workers parked on "every stream done" (serve mode) so they
  // observe the stop and wind down.
  sdd_work_.notify();
  gpu0_work_.notify();
}

void FfsVaInstance::prefetch_loop(std::shared_ptr<Stream> s, bool online) {
  const FfsVaConfig& cfg = s->cfg;
  runtime::RateLimiter limiter(cfg.online_fps, /*burst=*/2.0);
  runtime::Stopwatch watch;
  const auto frame_interval =
      std::chrono::duration<double>(1.0 / cfg.online_fps);

  const auto aborted = [&s] {
    // An end_stream() cut reads as end-of-source: the loop winds down
    // normally and the stream's in-flight frames drain through the cascade.
    return s->stop.stop_requested() ||
           s->quarantined.load(std::memory_order_acquire) ||
           s->ingest_end.load(std::memory_order_acquire);
  };

  int consecutive_retries = 0;
  int restarts_used = 0;
  while (!aborted()) {
    std::optional<video::Frame> f;
    bool source_error = false;
    bool transient = false;
    const auto decode_t0 = Clock::now();
    const auto frame_no =
        static_cast<std::int64_t>(s->prefetch_in.load(std::memory_order_relaxed));
    // A hung decode is what the watchdog must see: past stall_timeout_ms it
    // quarantines the stream and cancels the call, which keeps the join
    // bounded. Spans go to the process-global buffer, never the instance.
    const auto read = [&] {
      telemetry::ScopedSpan sp(trace(), "decode", telemetry::Stage::kPrefetch, s->id,
                               frame_no);
      try {
        f = s->source->next();
      } catch (const video::SourceError& e) {
        source_error = true;
        transient = e.transient();
        throw;
      }
    };
    const Call decoded = guarded_call(s->prefetch_call, s->id, frame_no, read);
    if (decoded != Call::kOk) {
      // Only quarantine cancels a decode: the stream is already being torn
      // down — just exit (the watchdog counted the cancel).
      if (decoded == Call::kCancelled) break;
      s->decode_errors.fetch_add(1, std::memory_order_relaxed);
      if (transient && consecutive_retries < cfg.source_max_retries) {
        // Transient contract (video/source.hpp): the source position is
        // unchanged, so retrying resumes with zero frame loss.
        s->retries.fetch_add(1, std::memory_order_relaxed);
        sliced_backoff(consecutive_retries++, aborted);
        continue;
      }
      // A fatal SourceError escalates to a source restart under the
      // budget; anything else (or past the budget) ends this stream, and
      // downstream drains normally.
      if (source_error && restarts_used < kSourceMaxRestarts &&
          s->source->restart()) {
        s->restarts.fetch_add(1, std::memory_order_relaxed);
        sliced_backoff(restarts_used++, aborted);
        consecutive_retries = 0;
        continue;
      }
      break;
    }
    if (!f) break;  // normal end of stream
    consecutive_retries = 0;
    s->decode_ms.record(ms_since(decode_t0));
    s->prefetch_in.fetch_add(1, std::memory_order_relaxed);
    Item item{std::move(*f), Clock::now()};
    // Offline the push blocks on the SDD threshold and fails only on a
    // closed queue. A live camera cannot block: a frame the pipeline cannot
    // absorb within one frame time is lost and counted (ClusterManager
    // re-forwards an overloaded instance's streams from its snapshots).
    if (online) limiter.acquire();
    const bool handed = online ? s->sdd_q.push_for(std::move(item), frame_interval)
                               : s->sdd_q.push(std::move(item));
    if (!handed) {
      // The frame was counted into prefetch_in, so it terminates here.
      if (s->sdd_q.closed()) {
        // stop()/quarantine closed the queue under us.
        s->finish(Fate::kDiscard, item);
        break;
      }
      s->finish(Fate::kIngestLoss, item);
      continue;
    }
    s->prefetch_passed.fetch_add(1, std::memory_order_relaxed);
  }
  s->ingest_wall_sec.store(watch.elapsed_sec(), std::memory_order_relaxed);
  s->sdd_q.close();
  // Ordered after the loop's last counter write: once a reader observes
  // ingest_done, prefetch_in is final (half of the quiescence predicate).
  s->ingest_done.store(true, std::memory_order_release);
}

void FfsVaInstance::run_stage(runtime::InflightCall& call,
                              const std::function<bool(bool)>& loop) {
  for (int restarts = 0; !loop(restarts < kStageMaxRestarts);) {
    // A watchdog cancel unwound the loop mid-call, every popped frame
    // already accounted. Re-enter after a bounded backoff; the time from
    // the cancel to serving again is the recovery latency.
    stage_restarts_.fetch_add(1, std::memory_order_relaxed);
    sliced_backoff(++restarts, [this] { return stop_.stop_requested(); });
    if (const std::int64_t at = call.cancelled_at_ms(); at >= 0) {
      hot_.recovery_ms->record(static_cast<double>(runtime::steady_now_ms() - at));
    }
  }
}

bool FfsVaInstance::sdd_worker_loop(int worker, bool allow_restart) {
  runtime::InflightCall& call = sdd_call_[static_cast<std::size_t>(worker)];
  int cursor = worker;  // stagger workers across streams
  for (;;) {
    const auto ticket = sdd_work_.prepare();
    // Re-read the published stream count every cycle: add_stream() may have
    // appended slots since the last scan (serve mode), and the eventcount
    // notify it issues lands after the count's release store — so a worker
    // that misses the new stream here wakes and rescans.
    const int n = num_streams();
    bool all_done = true;
    bool did_work = false;
    for (int step = 0; step < n; ++step) {
      const int idx = (cursor + step) % n;
      Stream& s = *streams_[static_cast<std::size_t>(idx)];
      if (s.sdd_done.load(std::memory_order_acquire)) continue;
      all_done = false;
      if (s.sdd_claimed.exchange(true, std::memory_order_acq_rel)) {
        continue;  // another worker is serving this stream
      }
      // Blocking push: the SNM feedback-queue threshold throttles this
      // worker (other workers keep serving other streams meanwhile).
      const auto to_snm = [&s](Item& it) { return s.snm_q.push(std::move(it)); };
      int processed = 0;
      bool restart_requested = false;
      while (processed < kSddRunLength) {
        // Order matters: observe close *before* the failed pop, so an empty
        // pop on a closed queue really means end-of-stream (a push cannot
        // land after close).
        const bool closed = s.sdd_q.closed();
        auto item = s.sdd_q.try_pop();
        if (!item) {
          if (closed) {
            s.sdd_done.store(true, std::memory_order_release);
            s.snm_q.close();
            sdd_work_.notify();  // wake workers idling on this last stream
          }
          break;
        }
        ++processed;
        if (s.quarantined.load(std::memory_order_acquire)) {
          // Drain-and-discard: the watchdog closed this stream's queues;
          // its in-flight frames are dumped, not processed.
          s.finish(Fate::kDiscard, *item);
          continue;
        }
        s.enter(kSdd);
        bool pass = false;
        const auto filter = [&] {
          telemetry::ScopedSpan sp(trace(), "sdd.filter", telemetry::Stage::kSdd, s.id,
                                   item->frame.index);
          pass = s.models.sdd->pass(item->frame.image);
        };
        const Call c = guarded_call(call, s.id, item->frame.index, filter);
        // Degrade per frame, never per stream: drop terminates the frame
        // here; bypass rides it to SNM.
        if (c != Call::kOk) pass = s.fault_verdict(*item, c, /*may_bypass=*/true);
        if (!s.route(kSdd, pass, *item, to_snm)) break;  // closed by quarantine
        if (c == Call::kCancelled && allow_restart) {
          // The frame is fully accounted; now restart this worker under the
          // stage budget.
          restart_requested = true;
          break;
        }
      }
      s.sdd_claimed.store(false, std::memory_order_release);
      if (restart_requested) return false;
      if (processed > 0) {
        did_work = true;
        cursor = idx;  // keep draining near the stream we just served
      }
    }
    if (all_done) {
      // Every registered stream's SDD stage has ended. In serve mode the
      // pool parks here waiting for the next add_stream() (whose notify
      // races safely against this wait via the prepared ticket); otherwise
      // — or once stop is requested — the run is over.
      if (config_.max_streams <= 0 || stop_.stop_requested()) return true;
      sdd_work_.wait(ticket);
      continue;
    }
    if (!did_work) sdd_work_.wait(ticket);
  }
}

bool FfsVaInstance::gpu0_loop(bool allow_restart) {
  TYoloScheduler scheduler(config_.num_tyolo);
  const DynamicBatcher batcher(config_.batch_policy, config_.batch_size,
                               config_.snm_queue_depth);
  // The stream set can grow mid-run (serve mode): both per-stream scratch
  // vectors are re-sized to the published count at each use, so a stream
  // added between cycles simply appears as a fresh not-done slot.
  std::vector<char> snm_done;
  std::vector<int> tyolo_depths;
  std::vector<Item> items;
  std::vector<const image::Image*> imgs;
  items.reserve(static_cast<std::size_t>(std::max(1, config_.batch_size)));
  bool running = true;
  bool restart_requested = false;

  // One T-YOLO service pick: up to num_tyolo frames from the next non-empty
  // stream in round-robin order (Section 3.2.3). Executed directly — this
  // thread owns GPU0. Clears `running` if the reference queue was closed
  // underneath us (shutdown).
  const auto serve_tyolo = [&]() -> bool {
    const auto n = static_cast<std::size_t>(num_streams());
    tyolo_depths.resize(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      tyolo_depths[i] = static_cast<int>(streams_[i]->tyolo_q.depth());
    }
    const auto pick = scheduler.next(tyolo_depths);
    if (pick.stream < 0) return false;
    Stream& s = *streams_[static_cast<std::size_t>(pick.stream)];
    int served = 0;
    bool progressed = false;
    const double conf = s.models.tyolo->config().confidence_threshold;
    telemetry::ScopedSpan span(trace(), "tyolo.batch", telemetry::Stage::kTyolo, s.id);
    for (int k = 0; k < pick.take && running; ++k) {
      auto item = s.tyolo_q.try_pop();
      if (!item) break;
      progressed = true;
      if (s.quarantined.load(std::memory_order_acquire)) {
        s.finish(Fate::kDiscard, *item);
        continue;  // drain, but don't run the model
      }
      s.enter(kTyolo);
      // Keep the detections, not just the verdict: the boxes are the
      // candidate regions the reference stage consolidates under
      // RefMode::kCropPack (a frame that was never detected carries none).
      detect::DetectionResult det;
      bool pass = false;
      const auto detect = [&] {
        det = s.models.tyolo->detect(item->frame.image);
        pass = det.count_target(s.models.target, conf) >= config_.number_of_objects;
      };
      const Call c = guarded_call(gpu0_call_, s.id, item->frame.index, detect);
      if (c != Call::kOk) pass = s.fault_verdict(*item, c, /*may_bypass=*/true);
      ++served;
      const auto to_ref = [&](Item& it) {
        return ref_q_.push({s.id, std::move(it), det.boxes()});
      };
      // A failed push means ref_q closed underneath us (shutdown).
      if (!s.route(kTyolo, pass, *item, to_ref)) running = false;
      if (c == Call::kCancelled && allow_restart) {
        // The frame is accounted; stop picking and let the cycle end so the
        // executor restarts with no frame in hand.
        restart_requested = true;
        break;
      }
    }
    span.set_batch(served);
    if (served > 0) {
      hot_.tyolo_picks->add();
      hot_.tyolo_take->record(static_cast<double>(served));
    }
    return progressed;
  };

  // The executor is also the T-YOLO service, so it must never block on a
  // full T-YOLO queue (it would deadlock against itself): a full queue
  // flips GPU0 over to T-YOLO work until space opens — the feedback-queue
  // throttle expressed as device interleaving. The executor is the only
  // thread touching T-YOLO queues, so the depth check is exact and the push
  // fails only when quarantine closed the queue (or shutdown stopped us).
  const auto to_tyolo = [&](Stream& s, Item& item) {
    while (running && s.tyolo_q.depth() >= s.tyolo_q.capacity() &&
           !s.tyolo_q.closed()) {
      serve_tyolo();
    }
    return running && s.tyolo_q.push(std::move(item));
  };

  while (running) {
    const auto ticket = gpu0_work_.prepare();
    const auto n = static_cast<std::size_t>(num_streams());
    snm_done.resize(n, 0);  // new slots start not-done
    bool did_work = false;
    bool all_snm_done = true;

    // SNM pass: drain every stream's queue under the batch policy into
    // cross-stream work for this cycle, one sub-batch per stream routed to
    // that stream's SNM. The executor is the only SNM-queue consumer, so an
    // observed depth can only grow before the pops below.
    for (std::size_t i = 0; i < n && running; ++i) {
      if (snm_done[i]) continue;
      Stream& s = *streams_[i];
      if (s.quarantined.load(std::memory_order_acquire)) {
        // Drain-and-discard both device queues of a quarantined stream.
        // The watchdog closed them, so once empty they stay empty.
        for (auto* q : {&s.snm_q, &s.tyolo_q}) {
          while (auto item = q->try_pop()) {
            s.finish(Fate::kDiscard, *item);
            did_work = true;
          }
        }
        if (s.snm_q.closed() && s.snm_q.depth() == 0) {
          snm_done[i] = 1;
        } else {
          all_snm_done = false;
        }
        continue;
      }
      const bool ended = s.snm_q.closed();  // read before depth (see sdd_worker_loop)
      const int avail = static_cast<int>(s.snm_q.depth());
      if (ended && avail == 0) {
        snm_done[i] = 1;
        continue;
      }
      all_snm_done = false;
      const auto d = batcher.next_batch(avail, ended);
      if (d.take <= 0) continue;
      items.clear();
      for (int k = 0; k < d.take; ++k) {
        auto item = s.snm_q.try_pop();
        if (!item) break;
        items.push_back(std::move(*item));
      }
      if (items.empty()) continue;
      did_work = true;
      imgs.clear();
      for (const auto& it : items) imgs.push_back(&it.frame.image);
      hot_.snm_batches->add();
      hot_.batch_size->record(static_cast<double>(items.size()));
      std::vector<double> scores;
      const auto predict = [&] {
        telemetry::ScopedSpan sp(trace(), "snm.batch", telemetry::Stage::kSnm, s.id, -1,
                                 static_cast<int>(items.size()));
        scores = s.models.snm->predict_batch(imgs);
      };
      const Call c = guarded_call(gpu0_call_, s.id, items.front().frame.index, predict);
      // The device call is batched, so a failure fails every frame in it:
      // each gets its own per-frame fault verdict below (conservation
      // holds); a cancel then restarts the executor under the stage budget.
      if (c == Call::kCancelled && allow_restart) restart_requested = true;
      const double t_pre = s.models.snm->t_pre();
      // Every popped frame is accounted, even when `running` flips false
      // mid-batch (ref_q closed at shutdown): a frame that can no longer be
      // routed terminates as discarded rather than vanishing.
      for (std::size_t j = 0; j < items.size(); ++j) {
        s.enter(kSnm);
        bool pass = c == Call::kOk && scores[j] >= t_pre;
        if (c != Call::kOk) pass = s.fault_verdict(items[j], c, /*may_bypass=*/true);
        s.route(kSnm, pass, items[j], [&](Item& it) { return to_tyolo(s, it); });
      }
    }

    // T-YOLO pass: one micro-batch per cycle keeps detection tightly
    // interleaved with SNM batching on the device.
    if (running && serve_tyolo()) did_work = true;

    if (!running) break;
    // Restart at the end of the cycle: every frame popped this cycle has
    // been routed or dropped, so the re-entered loop resumes cleanly from
    // the queues.
    if (restart_requested) return false;
    if (all_snm_done) {
      bool drained = true;
      for (std::size_t i = 0; i < n; ++i) {
        drained = drained && streams_[i]->tyolo_q.depth() == 0;
      }
      if (drained) {
        // Nothing left anywhere. In serve mode the executor parks here
        // waiting for the next add_stream() (its notify pairs with the
        // prepared ticket); otherwise — or once stop is requested — the
        // run is over.
        if (config_.max_streams <= 0 || stop_.stop_requested()) break;
        if (!did_work) gpu0_work_.wait(ticket);
        continue;
      }
      continue;  // only T-YOLO work remains; keep serving micro-batches
    }
    if (!did_work) gpu0_work_.wait(ticket);
  }
  return true;
}

bool FfsVaInstance::reference_loop(bool allow_restart,
                                   std::vector<RefEntry>& pending) {
  // Drain ref_q under a second DynamicBatcher (reusing the run's
  // BatchPolicy) into cross-stream batches, then evaluate each batch
  // in one go — detect_batch under kBatch, crop-consolidated mosaics under
  // kCropPack. GPU1 is owned by this thread: device placement holds by
  // construction, not a lock. Per-frame outcomes are applied in batch
  // order = pop order (per-stream FIFO preserved), and a frame whose
  // evaluation throws is dropped alone (RefBatchItem::ok) — batch-mates
  // are unaffected.
  const DynamicBatcher batcher(config_.batch_policy, config_.ref_batch_size,
                               kRefQueueThreshold);
  // bounded-ok: pending never exceeds ref_batch_size entries — the top-up
  // loop stops at the batch cap and the blocking pop adds one only when the
  // policy is still waiting below the cap. (The vector itself lives in the
  // reference thread's run_stage caller so popped entries survive a stage
  // restart.)
  pending.reserve(static_cast<std::size_t>(batcher.batch_size()));
  std::vector<RefEntry*> batch;  // eligible entries, in batch order
  std::vector<const detect::ReferenceDetector*> detectors;
  std::vector<const image::Image*> imgs;
  std::vector<detect::CropRequest> requests;
  bool ended = false;

  for (;;) {
    // Non-blocking top-up to the batch cap. Observe close *before* the
    // failed pop so an empty pop on a closed queue means end-of-stream.
    while (static_cast<int>(pending.size()) < batcher.batch_size() && !ended) {
      const bool closed = ref_q_.closed();
      auto e = ref_q_.try_pop();
      if (!e) {
        if (closed) ended = true;
        break;
      }
      pending.push_back(std::move(*e));
    }
    const auto step = batcher.next_batch(static_cast<int>(pending.size()), ended);
    if (step.wait) {
      // The policy wants a fuller batch: sleep on the queue, never poll.
      auto e = ref_q_.pop();
      if (!e) {
        ended = true;
        continue;
      }
      pending.push_back(std::move(*e));
      continue;
    }
    if (step.take <= 0) break;  // closed, drained, nothing pending: done

    // Quarantine drain-and-discard per entry; the rest form the batch.
    batch.clear();
    for (int i = 0; i < step.take; ++i) {
      RefEntry& e = pending[static_cast<std::size_t>(i)];
      Stream& s = *streams_[static_cast<std::size_t>(e.stream)];
      if (s.quarantined.load(std::memory_order_acquire)) {
        s.finish(Fate::kDiscard, e.item);
        continue;
      }
      s.enter(kRef);
      batch.push_back(&e);
    }

    Call c = Call::kOk;
    if (!batch.empty()) {
      hot_.ref_batches->add();
      hot_.ref_batch_size->record(static_cast<double>(batch.size()));
      std::vector<detect::RefBatchItem> results;
      const auto eval = [&] {
        telemetry::ScopedSpan sp(trace(), "ref.batch", telemetry::Stage::kRef,
                                 /*stream=*/-1, /*index=*/-1,
                                 static_cast<int>(batch.size()));
        if (config_.ref_mode == RefMode::kCropPack) {
          requests.clear();
          requests.reserve(batch.size());
          for (const RefEntry* e : batch) {
            const auto& ref =
                *streams_[static_cast<std::size_t>(e->stream)]->models.reference;
            requests.push_back(detect::CropRequest{
                &e->item.frame.image, &ref.background(), e->candidates});
          }
          // Reference-model parameters are deployment-wide; the per-stream
          // state (the background) travels inside each request.
          auto consolidated = detect::consolidate_detect(
              requests,
              streams_[static_cast<std::size_t>(batch.front()->stream)]
                  ->models.reference->config(),
              detect::CropPackConfig{});
          results = std::move(consolidated.items);
          const auto& cs = consolidated.stats;
          for (const double f : cs.fill_ratio) hot_.mosaic_fill->record(f);
          for (const int n : cs.crops_per_mosaic) {
            hot_.crops_per_mosaic->record(static_cast<double>(n));
          }
          hot_.ref_full_frame->add(
              static_cast<std::uint64_t>(cs.full_frame_fallbacks));
          hot_.ref_seam_suppressed->add(
              static_cast<std::uint64_t>(cs.seam_suppressed));
        } else {  // RefMode::kBatch
          detectors.clear();
          imgs.clear();
          for (const RefEntry* e : batch) {
            detectors.push_back(
                streams_[static_cast<std::size_t>(e->stream)]->models.reference.get());
            imgs.push_back(&e->item.frame.image);
          }
          results = detect::detect_batch(detectors, imgs);
        }
      };
      // The batch spans streams; attribute the in-flight call to the first
      // entry (the watchdog only needs *a* stream to charge the cancel to).
      // detect_batch re-raises a cancel after all its chunks join, so a
      // cancel fails the whole batch, like the SNM contract.
      const RefEntry& first = *batch.front();
      c = guarded_call(ref_call_, first.stream, first.item.frame.index, eval);

      for (std::size_t i = 0; i < batch.size(); ++i) {
        RefEntry& e = *batch[i];
        Stream& s = *streams_[static_cast<std::size_t>(e.stream)];
        if (c != Call::kOk || !results[i].ok) {
          // The reference model is the last vetting stage: a frame it
          // cannot evaluate is always dropped (poisoned on its second
          // wedge), never emitted unvetted.
          s.fault_verdict(e.item, c == Call::kOk ? Call::kThrew : c,
                          /*may_bypass=*/false);
          s.finish(Fate::kDropRef, e.item);
          continue;
        }
        const double latency = ms_since(e.item.ingest);
        if (sink_) {
          sink_(OutputEvent{std::move(e.item.frame), std::move(results[i].result),
                            latency});
        }
        // Finished after the sink call: stream_quiesced() implying "all
        // outputs delivered" is what lets a hand-off serialize a complete
        // result set.
        s.finish(Fate::kEmit, latency);
      }
    }
    // Remove the processed entries before any restart: the re-entered loop
    // must not serve them again.
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(step.take));
    if (c == Call::kCancelled && allow_restart) return false;
  }
  return true;
}

void FfsVaInstance::quarantine(Stream& s) {
  if (s.quarantined.exchange(true, std::memory_order_acq_rel)) return;
  // Close the stream's queues: its producers fail fast, its consumers
  // drain-and-discard. Every other stream keeps running untouched.
  s.sdd_q.close();
  s.snm_q.close();
  s.tyolo_q.close();
  gpu0_work_.notify();  // run the executor's drain branch promptly
  // The prefetch thread is joined, never detached — so a decode wedged
  // inside source->next() must be made to return. Cancel the in-flight
  // call: the source unwinds via CancelledError at its next cancellation
  // check, the loop observes the quarantine and exits, and run()'s join is
  // bounded. (timeout -1: cancel whatever is in flight, however young.)
  cancel_overrun(s.prefetch_call, runtime::steady_now_ms(), -1);
}

void FfsVaInstance::cancel_overrun(runtime::InflightCall& call, std::int64_t now_ms,
                                   std::int64_t timeout_ms) {
  if (!call.try_cancel(now_ms, timeout_ms)) return;
  cancels_.fetch_add(1, std::memory_order_relaxed);
  const int st = call.stream();
  if (st >= 0 && st < num_streams()) {
    auto& stream_cancels = streams_[static_cast<std::size_t>(st)]->cancels;
    stream_cancels.fetch_add(1, std::memory_order_relaxed);
  }
}

void FfsVaInstance::supervise() {
  telemetry::ScopedSpan sp(trace(), "supervise.tick",
                           telemetry::Stage::kSupervise);
  // Both timeouts read one signal, the busy ages of the in-flight slots
  // (0 = disarmed), and each owns one kind of slot. Shared stages (SDD
  // pool, GPU0 executor, reference thread) serve every stream, so they
  // cannot be quarantined per stream: a call of theirs in flight past
  // model_call_timeout_ms is cancelled (DESIGN.md Section 14). It unwinds
  // via CancelledError at its next tile boundary, and the owning stage
  // degrades (or poisons) the frame and restarts under the stage budget.
  const std::int64_t now = runtime::steady_now_ms();
  const std::int64_t call_timeout = config_.model_call_timeout_ms;
  const std::int64_t stall_timeout = config_.stall_timeout_ms;
  if (call_timeout > 0) {
    for (auto& c : sdd_call_) cancel_overrun(c, now, call_timeout);
    cancel_overrun(gpu0_call_, now, call_timeout);
    cancel_overrun(ref_call_, now, call_timeout);
  }
  if (stall_timeout <= 0) return;
  // A decode in flight past stall_timeout_ms quarantines its stream
  // (Section 9).
  const int n = num_streams();
  for (int i = 0; i < n; ++i) {
    Stream& s = *streams_[static_cast<std::size_t>(i)];
    if (!s.quarantined.load(std::memory_order_acquire)) {
      if (s.prefetch_call.busy_age_ms(now) > stall_timeout) quarantine(s);
    } else {
      // A quarantined stream's prefetch thread is joined, not detached:
      // keep cancelling any call still wedged (e.g. a fresh one that raced
      // the quarantine cancel) so the join stays bounded.
      cancel_overrun(s.prefetch_call, now, stall_timeout);
    }
  }
}

InstanceStats FfsVaInstance::run(bool online) {
  const bool serve = config_.max_streams > 0;
  if (streams_.empty() && !serve) {
    throw std::invalid_argument("FfsVaInstance::run: no streams registered");
  }
  if (run_called_.exchange(true)) {
    throw std::logic_error(
        "FfsVaInstance::run: run() already invoked on this instance");
  }
  runtime::Stopwatch wall;
  const auto t0 = Clock::now();
  run_t0_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t0.time_since_epoch())
                       .count(),
                   std::memory_order_relaxed);
  // All registry handles exist before any stage thread starts — from here
  // the hot path never touches the registry map.
  wire_metrics();
  if (tracing_requested_) trace().enable();
  if (!metrics_path_.empty()) {
    exporter_.start_file(metrics_path_, config_.metrics_interval_ms,
                         metrics_label_);
  } else if (metrics_sink_ != nullptr) {
    exporter_.start_stream(metrics_sink_, config_.metrics_interval_ms,
                           metrics_label_);
  }
  int n0 = 0;
  {
    runtime::MutexLock lk(streams_mu_);
    n0 = nstreams_.load(std::memory_order_relaxed);
    // Reserve every slot a mid-run add_stream() may fill: a push_back
    // within this capacity never reallocates, so the raw Stream pointers
    // stage threads hold across their scans stay valid for the whole run.
    streams_.reserve(std::max(
        streams_.size(),
        static_cast<std::size_t>(std::max(0, config_.max_streams))));
    // Fix every stream's queues for this run's mode before any thread
    // starts; add_stream() replays run_online_ for streams attached mid-run
    // (DESIGN.md §15).
    for (int i = 0; i < n0; ++i) {
      streams_[static_cast<std::size_t>(i)]->attach(online, &sdd_work_, &gpu0_work_);
    }
    run_online_ = online;
    engine_live_ = true;
  }
  running_.store(true, std::memory_order_release);
  // The SDD pool: config.sdd_workers, or the FFSVA_THREADS compute
  // parallelism, capped by the streams it serves. A serving engine cannot
  // size it by the (changing, possibly zero) stream count — it sizes it for
  // its slot reservation instead, parked on the eventcount until streams
  // arrive.
  const int workers = std::clamp(
      config_.sdd_workers > 0 ? config_.sdd_workers : runtime::compute_parallelism(),
      1, serve ? config_.max_streams : n0);
  sdd_call_ = std::vector<runtime::InflightCall>(static_cast<std::size_t>(workers));

  // thread-ok: per-stream prefetch threads — a camera/decoder is inherently
  // per-stream; all joined below (quarantine cancels a wedged decode, so
  // the join is bounded).
  std::vector<std::thread> prefetch_threads;
  prefetch_threads.reserve(static_cast<std::size_t>(n0));
  for (int i = 0; i < n0; ++i) {
    prefetch_threads.emplace_back(&FfsVaInstance::prefetch_loop,
                                  streams_[static_cast<std::size_t>(i)], online);
  }
  // thread-ok: the fixed stage set (SDD pool, GPU0 executor, reference
  // thread) — O(workers), not O(streams); all joined below.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers) + 2);
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([this, w] {
      run_stage(sdd_call_[static_cast<std::size_t>(w)],
                [this, w](bool r) { return sdd_worker_loop(w, r); });
    });
  }
  threads.emplace_back([this] {
    run_stage(gpu0_call_, [this](bool r) { return gpu0_loop(r); });
    // Single exit: the reference stage always sees end-of-stream, whatever
    // path brought the executor down — and never before its final restart.
    ref_q_.close();
  });
  threads.emplace_back([this] {
    std::vector<RefEntry> pending;  // see reference_loop
    run_stage(ref_call_, [&](bool r) { return reference_loop(r, pending); });
  });

  // The watchdog ticks at a quarter of the tightest armed timeout (at most
  // every 50 ms) and stays off when none is armed.
  runtime::Watchdog watchdog;
  int tick = 50;
  bool armed = false;
  for (const int timeout_ms : {config_.stall_timeout_ms, config_.model_call_timeout_ms}) {
    if (timeout_ms <= 0) continue;
    armed = true;
    tick = std::min(tick, std::max(1, timeout_ms / 4));
  }
  if (armed) {
    watchdog.start(std::chrono::milliseconds(tick), [this] { supervise(); });
  }

  // Joined, never detached: a prefetch thread wedged inside its source is
  // un-wedged by cancellation — quarantine cancels its in-flight decode,
  // and supervise() keeps re-cancelling a call that stays wedged — so each
  // join completes in bounded time. The watchdog stays alive until these
  // joins are done (it stops below).
  for (auto& t : prefetch_threads) t.join();
  for (auto& t : threads) t.join();
  {
    // The stage threads are gone, so no new stream can be served: close the
    // engine to further adds, then join the prefetch threads add_stream()
    // spawned mid-run (stop()'s close sweep unblocked them; a wedged decode
    // is still cancellable — the watchdog stops only after these joins).
    runtime::MutexLock lk(streams_mu_);
    engine_live_ = false;
    // blocking-ok: joins under streams_mu_ are bounded — the ingest queues
    // are closed, so each prefetch thread is on its way out, and holding
    // the lock here is what makes add_stream's attach/engine-down check
    // atomic against this teardown.
    for (auto& t : late_prefetch_) t.join();
    late_prefetch_.clear();
  }
  watchdog.stop();
  // Every stage thread has quiesced: the exporter's final row and the trace
  // rings now hold the run's exact closing state.
  exporter_.stop();
  if (tracing_requested_) trace().disable();
  running_.store(false, std::memory_order_release);

  // Every thread is joined, so the snapshot is exact: it is the run's
  // report, frozen, plus what only the join makes safe to read — the
  // single-owner latency histograms and the decode histogram.
  InstanceStats out = snapshot();
  out.wall_sec = wall.elapsed_sec();
  std::uint64_t ingested = 0;
  for (StreamStats& st : out.streams) {
    const Stream& s = *streams_[static_cast<std::size_t>(st.id)];
    for (const auto& h : s.lat) st.latency_ms.merge(h);
    st.ingest.decode_ms = s.decode_ms.snapshot();
    ingested += st.prefetch.passed;
  }
  out.total_throughput_fps =
      out.wall_sec > 0.0 ? static_cast<double>(ingested) / out.wall_sec : 0.0;
  return out;
}

}  // namespace ffsva::core
