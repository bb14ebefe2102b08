// Telemetry against the real threaded engine: the chrome-trace exporter and
// JSONL metrics stream produced by an actual run (its schema pinned key by
// key, and shared with the simulator's rows), snapshot() and
// metrics_snapshot() polled safely while streams are in
// flight (this binary carries the tsan label), and ClusterManager
// re-forwarding driven solely by live FfsVaInstance snapshots — the paper's
// Section 4.3.1 control loop closed end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "core/pipeline.hpp"
#include "json_reader.hpp"
#include "sim/ffsva_sim.hpp"
#include "video/profiles.hpp"

namespace ffsva::core {
namespace {

// The same world as pipeline_test's shared stream: it is known to carry
// frames through every stage (SDD/SNM/T-YOLO survivors reach the reference
// model), which the trace/queue-pressure assertions below depend on.
struct World {
  video::SceneConfig cfg;
  detect::StreamModels models;
  std::vector<video::Frame> window;

  World() {
    cfg = video::jackson_profile();
    cfg.width = 128;
    cfg.height = 96;
    cfg.tor = 0.35;
    video::SceneSimulator sim(cfg, 91, 1400);
    std::vector<video::Frame> calib;
    for (int i = 0; i < 700; ++i) calib.push_back(sim.render(i));
    detect::SpecializeConfig sc;
    sc.target = cfg.target;
    sc.snm.epochs = 5;
    models = detect::specialize_stream(calib, sc, 91);
    for (int i = 700; i < 1000; ++i) window.push_back(sim.render(i));
  }
};

World& world() {
  static auto* w = new World();
  return *w;
}

class ReplaySource final : public video::FrameSource {
 public:
  ReplaySource(const std::vector<video::Frame>* window, int stream_id)
      : window_(window), stream_id_(stream_id) {}

  std::optional<video::Frame> next() override {
    if (next_ >= window_->size()) return std::nullopt;
    video::Frame f = (*window_)[next_++];
    f.stream_id = stream_id_;
    return f;
  }
  std::int64_t total_frames() const override {
    return static_cast<std::int64_t>(window_->size());
  }

 private:
  const std::vector<video::Frame>* window_;
  int stream_id_;
  std::size_t next_ = 0;
};

/// One offline run of four replayed streams with tracing and the metrics
/// exporter on, made once and shared by the tests that read its output.
struct ExportedRun {
  InstanceStats stats;
  std::string trace;  ///< chrome://tracing JSON ("" if it was not written).
  std::string rows;   ///< Metrics JSONL, labelled "itest".
};

const ExportedRun& exported_run() {
  static const ExportedRun* run = [] {
    auto& w = world();
    FfsVaConfig cfg;
    cfg.metrics_interval_ms = 20;
    FfsVaInstance instance(cfg);
    for (int s = 0; s < 4; ++s) {
      instance.add_stream(std::make_unique<ReplaySource>(&w.window, s), w.models);
    }
    instance.set_output_sink([](const OutputEvent&) {});
    std::ostringstream metrics;
    instance.enable_metrics_export(&metrics, "itest");
    instance.enable_tracing();
    auto* r = new ExportedRun();
    r->stats = instance.run(/*online=*/false);
    r->rows = metrics.str();
    const std::string trace_path =
        ::testing::TempDir() + "/ffsva_itest_trace.json";
    if (instance.export_trace(trace_path)) {
      std::ifstream in(trace_path);
      r->trace.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
      std::remove(trace_path.c_str());
    }
    return r;
  }();
  return *run;
}

/// The last row of a metrics JSONL stream, parsed.
std::optional<telemetry::testing::ParsedJson> final_row(const std::string& rows) {
  std::string last;
  std::istringstream lines(rows);
  for (std::string line; std::getline(lines, line);) last = line;
  return telemetry::testing::parse_json(last);
}

TEST(PipelineTelemetry, RealRunExportsTraceAndMetrics) {
  const ExportedRun& run = exported_run();
  const InstanceStats& stats = run.stats;

  // Trace: spans for all four stages (the prefetch decode, the SDD filter,
  // the executor's SNM and T-YOLO batches) plus the reference stage.
  const std::string& trace = run.trace;
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  for (const char* cat : {"prefetch", "sdd", "snm", "tyolo", "ref"}) {
    EXPECT_NE(trace.find("\"cat\":\"" + std::string(cat) + "\""),
              std::string::npos)
        << cat;
  }
  // Executor batches carry their realized size.
  EXPECT_NE(trace.find("snm.batch"), std::string::npos);
  EXPECT_NE(trace.find("tyolo.batch"), std::string::npos);
  EXPECT_NE(trace.find("\"batch\":"), std::string::npos);

  // Metrics JSONL: at least the final stop() sample, carrying stage
  // counters, per-stage rates, queue-depth gauges, and supervision gauges.
  const std::string& rows = run.rows;
  ASSERT_FALSE(rows.empty());
  for (const char* key :
       {"\"sdd.in\"", "\"snm.in\"", "\"tyolo.in\"", "\"ref.passed\"",
        "\"drop.sdd\"", "\"drop.snm\"", "\"drop.tyolo\"", "\"queue.sdd\"",
        "\"queue.snm\"", "\"queue.tyolo\"", "\"queue.ref\"",
        "\"supervision.cancels\"", "\"executor.batch_size\"", "\"rates\"",
        "\"label\":\"itest\""}) {
    EXPECT_NE(rows.find(key), std::string::npos) << key;
  }

  // The final row (stop()'s sample, taken after every stage joined) carries
  // the exported schema exactly, each key in its section, and its stage
  // counters and fault/prefetch gauges equal the run's frozen stats.
  const auto row = final_row(rows);
  ASSERT_TRUE(row.has_value()) << rows;
  const std::set<std::string> counters = {
      "drop.ref", "drop.sdd", "drop.snm", "drop.tyolo", "executor.ref_batches",
      "executor.snm_batches", "executor.tyolo_picks", "ref.full_frame_fallbacks",
      "ref.in", "ref.passed", "ref.seam_suppressed", "sdd.in", "sdd.passed",
      "snm.in", "snm.passed", "tyolo.in", "tyolo.passed"};
  const std::set<std::string> gauges = {
      "drop.ingest", "fault.cancelled_calls", "fault.decode_errors",
      "fault.degraded_frames", "fault.discarded_frames", "fault.poisoned_frames",
      "fault.restarts", "fault.retries", "latency.decode_p50_ms",
      "latency.decode_p99_ms", "prefetch.in", "prefetch.passed", "queue.ref",
      "queue.sdd", "queue.snm", "queue.tyolo", "streams.quarantined",
      "supervision.cancels", "supervision.stage_restarts"};
  ASSERT_EQ(gauges.size(), 19u);
  const std::set<std::string> hists = {
      "executor.batch_size", "executor.ref_batch_size", "executor.tyolo_take",
      "latency.drop_ms", "latency.output_ms", "latency.recovery_ms",
      "ref.crops_per_mosaic", "ref.mosaic_fill"};
  EXPECT_EQ(row->keys("counters"), counters);
  EXPECT_EQ(row->keys("rates"), counters);
  EXPECT_EQ(row->keys("gauges"), gauges);
  EXPECT_EQ(row->keys("hist"), hists);
  EXPECT_EQ(row->strings.at("label"), "itest");

  const auto agg = stats.aggregate();
  const auto num = [&](const std::string& path) {
    const auto it = row->numbers.find(path);
    return it == row->numbers.end() ? -1.0 : it->second;
  };
  const std::pair<std::string, runtime::StageCounters> stages[] = {
      {"sdd", agg.sdd}, {"snm", agg.snm}, {"tyolo", agg.tyolo}, {"ref", agg.ref}};
  for (const auto& [name, c] : stages) {
    EXPECT_EQ(num("counters/" + name + ".in"), static_cast<double>(c.in)) << name;
    EXPECT_EQ(num("counters/" + name + ".passed"), static_cast<double>(c.passed))
        << name;
    EXPECT_EQ(num("counters/drop." + name), static_cast<double>(c.in - c.passed))
        << name;
  }
  EXPECT_GT(agg.ref.passed, 0u);  // the world reaches every stage
  const std::pair<const char*, std::uint64_t> totals[] = {
      {"prefetch.in", agg.prefetch.in},
      {"prefetch.passed", agg.prefetch.passed},
      {"fault.decode_errors", agg.fault.decode_errors},
      {"fault.retries", agg.fault.retries},
      {"fault.restarts", agg.fault.restarts},
      {"fault.degraded_frames", agg.fault.degraded_frames},
      {"fault.discarded_frames", agg.fault.discarded_frames},
      {"fault.cancelled_calls", agg.fault.cancelled_calls},
      {"fault.poisoned_frames", agg.fault.poisoned_frames}};
  for (const auto& [name, v] : totals) {
    EXPECT_EQ(num(std::string("gauges/") + name), static_cast<double>(v)) << name;
  }
}

// One schema: the simulator's rows are the engine exporter's rows. Every
// key a simulator row carries is in the engine's final row under the same
// section, and the simulator writes every key stats_metrics() derives.
TEST(PipelineTelemetry, SimulatorWritesTheEngineSchema) {
  const auto engine = final_row(exported_run().rows);
  ASSERT_TRUE(engine.has_value());

  sim::SimSetup setup;
  setup.num_streams = 2;
  setup.online = false;
  setup.frames_per_stream = 300;
  std::ostringstream sim_rows;
  setup.metrics_sink = &sim_rows;
  sim::simulate_ffsva(setup);
  const auto simulated = final_row(sim_rows.str());
  ASSERT_TRUE(simulated.has_value()) << sim_rows.str();

  for (const std::string section : {"counters", "rates", "gauges"}) {
    const auto engine_keys = engine->keys(section);
    const auto sim_keys = simulated->keys(section);
    EXPECT_FALSE(sim_keys.empty()) << section;
    for (const auto& key : sim_keys) {
      EXPECT_TRUE(engine_keys.count(key)) << section << "/" << key;
    }
  }
  const auto shared = stats_metrics(InstanceStats{}, {});
  for (const auto& [name, value] : shared.counters) {
    EXPECT_TRUE(simulated->keys("counters").count(name)) << name;
    EXPECT_TRUE(simulated->keys("rates").count(name)) << name;
  }
  for (const auto& [name, value] : shared.gauges) {
    EXPECT_TRUE(simulated->keys("gauges").count(name)) << name;
  }
}

// The exported drop counters are derived as `in - passed` from one mid-run
// snapshot, whose two relaxed reads can skew: the subtraction must saturate,
// never wrap, so no drop count ever exceeds the stage's input. The skew
// window is a few nanoseconds, so this live check rarely sees one;
// StageCounters.FilteredSaturatesOnASkewedRead pins the arithmetic.
TEST(PipelineTelemetry, MetricsSnapshotDropsNeverExceedInputsMidRun) {
  auto& w = world();
  constexpr int kStreams = 16;
  FfsVaConfig cfg;
  FfsVaInstance instance(cfg);
  for (int s = 0; s < kStreams; ++s) {
    instance.add_stream(std::make_unique<ReplaySource>(&w.window, s), w.models);
  }
  instance.set_output_sink([](const OutputEvent&) {});

  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto m = instance.metrics_snapshot();
      for (const char* stage : {"sdd", "snm", "tyolo", "ref"}) {
        const std::string name = stage;
        EXPECT_LE(m.counter_or("drop." + name), m.counter_or(name + ".in")) << name;
      }
      ++polls;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto stats = instance.run(/*online=*/false);
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls, 0u);

  // Once the run has returned the derived counters are exact.
  const auto m = instance.metrics_snapshot();
  const auto agg = stats.aggregate();
  EXPECT_EQ(m.counter_or("sdd.in"), agg.sdd.in);
  EXPECT_EQ(m.counter_or("drop.snm"), agg.snm.in - agg.snm.passed);
  EXPECT_EQ(m.counter_or("ref.passed"), agg.ref.passed);
}

TEST(PipelineTelemetry, SnapshotIsSafeAndMonotonicMidRun) {
  auto& w = world();
  constexpr int kStreams = 32;
  FfsVaConfig cfg;
  FfsVaInstance instance(cfg);
  for (int s = 0; s < kStreams; ++s) {
    instance.add_stream(std::make_unique<ReplaySource>(&w.window, s), w.models);
  }
  instance.set_output_sink([](const OutputEvent&) {});

  EXPECT_FALSE(instance.snapshot().running);

  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  std::thread poller([&] {
    // Per-location monotonicity is the safe mid-run invariant: each counter
    // is a single atomic, so successive relaxed reads never go backwards.
    // (Cross-stage inequalities are only guaranteed once writers quiesce.)
    std::vector<std::uint64_t> last_sdd_in(kStreams, 0);
    std::uint64_t last_served = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = instance.snapshot();
      EXPECT_EQ(snap.streams.size(), static_cast<std::size_t>(kStreams));
      const std::uint64_t served = snap.tyolo_served();
      EXPECT_GE(served, last_served);
      last_served = served;
      for (std::size_t i = 0; i < snap.streams.size(); ++i) {
        const auto& s = snap.streams[i];
        EXPECT_EQ(s.id, static_cast<int>(i));
        EXPECT_GE(s.sdd.in, last_sdd_in[i]);
        last_sdd_in[i] = s.sdd.in;
      }
      ++polls;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  const auto stats = instance.run(/*online=*/false);
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls, 0u);

  // After the run the snapshot is the frozen end state.
  const auto final_snap = instance.snapshot();
  EXPECT_FALSE(final_snap.running);
  std::uint64_t tyolo_in_total = 0;
  for (const auto& st : stats.streams) tyolo_in_total += st.tyolo.in;
  EXPECT_EQ(final_snap.tyolo_served(), tyolo_in_total);
  EXPECT_EQ(final_snap.streams.size(), stats.streams.size());
  for (std::size_t i = 0; i < stats.streams.size(); ++i) {
    EXPECT_EQ(final_snap.streams[i].ref.passed, stats.streams[i].ref.passed);
    EXPECT_EQ(final_snap.streams[i].prefetch.in, stats.streams[i].prefetch.in);
  }
}

// Section 4.3.1 end to end: an instance whose live snapshots show full SNM /
// T-YOLO queues becomes the re-forward source; an instance whose snapshots
// show a quiet T-YOLO over a full admission window becomes the target. No
// hand-fed signals — everything the ClusterManager sees comes from
// FfsVaInstance::snapshot().
TEST(PipelineTelemetry, LiveSnapshotsDriveClusterReforward) {
  auto& w = world();

  FfsVaConfig cfg;
  cfg.admit_tyolo_fps = 1e6;     // spare == any observed full window
  cfg.admit_window_sec = 0.25;
  ClusterManager cm(2, cfg);
  const auto now_sec = [t0 = std::chrono::steady_clock::now()] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Instance 1: one light stream, run to completion, then observed idle for
  // a full admission window -> demonstrated spare capacity.
  FfsVaInstance light(cfg);
  light.add_stream(std::make_unique<ReplaySource>(&w.window, 100), w.models);
  light.set_output_sink([](const OutputEvent&) {});
  light.run(/*online=*/false);
  cm.attach_stream(100, 1);
  {
    const double t_begin = now_sec();
    while (now_sec() - t_begin < 1.2 * cfg.admit_window_sec) {
      cm.report_snapshot(1, now_sec(), light.snapshot());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    cm.report_snapshot(1, now_sec(), light.snapshot());
  }

  // Instance 0: six streams flooding the shared GPU0 executor offline, so
  // some stream's bounded SNM/T-YOLO queue is full whenever we look. The
  // overload decision is latched the moment a live snapshot shows it (and the
  // run wound down early) — the Section 4.3.1 trigger is "a queue is full
  // now", and waiting for the run to finish first would race the drain tail,
  // which under a sanitizer's slowdown outlasts the 1 s overload recency
  // window. The poll racing a full queue is overwhelmingly likely but not
  // certain, so the run is repeated (fresh instance) in the rare miss case.
  constexpr int kBusyStreams = 6;
  for (int s = 0; s < kBusyStreams; ++s) cm.attach_stream(s, 0);
  double last_t = now_sec();
  for (int attempt = 0; attempt < 3 && !cm.instance_overloaded(0, last_t);
       ++attempt) {
    FfsVaInstance busy(cfg);
    for (int s = 0; s < kBusyStreams; ++s) {
      busy.add_stream(std::make_unique<ReplaySource>(&w.window, s), w.models);
    }
    busy.set_output_sink([](const OutputEvent&) {});

    std::atomic<bool> done{false};
    std::thread runner([&] {
      busy.run(/*online=*/false);
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) {
      const double t = now_sec();
      cm.report_snapshot(0, t, busy.snapshot());
      if (cm.instance_overloaded(0, t)) {
        last_t = t;
        busy.stop();
        break;
      }
      last_t = t;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    runner.join();
  }

  EXPECT_TRUE(cm.instance_overloaded(0, last_t));
  EXPECT_TRUE(cm.instance_has_spare(1, last_t));
  const auto d = cm.next_reforward(last_t);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->from_instance, 0);
  EXPECT_EQ(d->to_instance, 1);
  EXPECT_EQ(cm.instance_of(d->stream_id), 1);
}

}  // namespace
}  // namespace ffsva::core
