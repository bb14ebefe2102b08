// enginebench: one run of the engine benchmark on one workload.
//
//   enginebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--git-sha <sha>]
//
// --trace 0 runs the real core::FfsVaInstance (default FfsVaConfig) on the
// workload until --seconds of engine time have been measured (at least
// three repetitions offline), checks every repetition's per-frame verdicts
// against the sequential cascade, and prints the end-to-end metrics.
// --trace 1 times the benchmark's own calls into each layer on the
// workload's frames, then makes one untraced and one traced engine run and
// prints the per-layer ledger. No tracing is added inside the program: the
// traced run reads the engine's spans, snapshot(), metrics() histograms and
// InstanceStats.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Exit code 0 means the run completed; `correct` says whether it
// passed the verdict and conservation gate.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "image/ops.hpp"
#include "inputs.hpp"
#include "ledger.hpp"
#include "nn/gemm.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/rng.hpp"
#include "telemetry/spans.hpp"

#ifndef ENGINEBENCH_BUILD_TYPE
#define ENGINEBENCH_BUILD_TYPE "unknown"
#endif

namespace eb = enginebench;
namespace core = ffsva::core;
namespace video = ffsva::video;
namespace image = ffsva::image;

namespace {

using eb::Clock;

constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (user + sys) of every thread, in seconds.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// A "Vm...:" field of /proc/self/status in kB, or -1.
double proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) return std::atof(line.c_str() + len + 1);
  }
  return -1.0;
}

/// Reset the kernel's peak-RSS mark to the current RSS, so VmHWM read
/// later is the peak of what follows.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  return static_cast<bool>(out.flush());
}

// ---------------------------------------------------------------------------
// One engine run.

struct Emitted {
  int stream = 0;
  std::int64_t k = 0;
  Clock::time_point at{};
  int detections = 0;
  int targets = 0;
};

struct Funnel {
  std::uint64_t sdd = 0, snm = 0, tyolo = 0, emitted = 0;
  bool operator==(const Funnel&) const = default;

  void add(eb::Fate fate) {
    switch (fate) {
      case eb::Fate::kSdd: ++sdd; break;
      case eb::Fate::kSnm: ++snm; break;
      case eb::Fate::kTyolo: ++tyolo; break;
      case eb::Fate::kEmit: ++emitted; break;
    }
  }
};

struct QueueSamples {
  double sdd = 0, snm = 0, tyolo = 0, ref = 0;
  std::uint64_t n = 0;
};

struct Rep {
  double wall_s = 0.0;
  double fps = 0.0;
  double cpu_ms_per_frame = 0.0;
  double rss_mb = 0.0;         ///< Peak resident memory during run().
  double rss_growth_mb = 0.0;  ///< That peak minus resident memory before.
  std::uint64_t due = 0, ingested = 0, failed = 0;
  std::uint64_t verdicts = 0, mismatches = 0;
  bool conserved = true;
  bool funnel_ok = true;
  Funnel funnel;
  std::vector<double> result_ms;  ///< Per expected result; +inf if it never came.
  std::vector<double> lag_ms;     ///< Per pulled frame.
  ffsva::runtime::StageCounters sdd, snm, tyolo, ref;
  std::uint64_t decoded = 0;
  double snm_batch_mean = 0.0, ref_batch_mean = 0.0;
  // Traced runs only.
  std::vector<ffsva::telemetry::Span> spans;
  QueueSamples queues;
};

Rep run_engine(const eb::Inputs& in, bool traced) {
  const eb::WorkloadSpec& spec = *in.spec;
  const auto n = static_cast<std::size_t>(spec.streams);
  const auto f = static_cast<std::size_t>(spec.frames_per_stream);

  core::FfsVaInstance inst(core::FfsVaConfig{});
  std::vector<eb::StreamLog> logs(n);
  std::vector<Emitted> emitted;
  emitted.reserve(n * f);
  // Called on the engine's one reference thread; read after run() joins it.
  inst.set_output_sink([&emitted, &in](const core::OutputEvent& ev) {
    emitted.push_back({ev.frame.stream_id, ev.frame.index, Clock::now(),
                       static_cast<int>(ev.result.detections.size()),
                       ev.result.count_target(
                           in.models.target,
                           in.models.reference->config().confidence_threshold)});
  });
  for (std::size_t s = 0; s < n; ++s) {
    inst.add_stream(std::make_unique<eb::BenchSource>(in, static_cast<int>(s), &logs[s]),
                    in.models);
  }
  if (traced) inst.enable_tracing();

  Rep rep;
  std::atomic<bool> done{false};
  std::thread sampler;
  if (traced) {
    sampler = std::thread([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = inst.snapshot();
        if (snap.running) {
          for (const auto& s : snap.streams) {
            rep.queues.sdd += static_cast<double>(s.sdd_queue_depth);
            rep.queues.snm += static_cast<double>(s.snm_queue_depth);
            rep.queues.tyolo += static_cast<double>(s.tyolo_queue_depth);
          }
          rep.queues.ref += static_cast<double>(snap.ref_queue_depth);
          ++rep.queues.n;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  const bool peak_reset = reset_peak_rss();
  const double rss_before_kb = proc_status_kb("VmRSS:");
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  core::InstanceStats stats;
  try {
    stats = inst.run(spec.online);
  } catch (...) {
    done.store(true, std::memory_order_release);
    if (sampler.joinable()) sampler.join();
    throw;
  }
  const auto t1 = Clock::now();
  const double cpu1 = cpu_seconds();
  done.store(true, std::memory_order_release);
  if (sampler.joinable()) sampler.join();
  if (peak_reset) {
    rep.rss_mb = proc_status_kb("VmHWM:") / 1024.0;
    rep.rss_growth_mb = rep.rss_mb - rss_before_kb / 1024.0;
  }
  if (traced) rep.spans = ffsva::telemetry::TraceBuffer::global().collect();

  rep.wall_s = seconds_between(t0, t1);
  const auto agg = stats.aggregate();
  rep.ingested = agg.prefetch.passed;
  rep.fps = static_cast<double>(rep.ingested) / rep.wall_s;
  rep.cpu_ms_per_frame =
      rep.ingested ? (cpu1 - cpu0) * 1e3 / static_cast<double>(rep.ingested) : 0.0;
  rep.sdd = agg.sdd;
  rep.snm = agg.snm;
  rep.tyolo = agg.tyolo;
  rep.ref = agg.ref;
  rep.decoded = spec.stored ? agg.ingest.decode_full : 0;
  rep.snm_batch_mean = inst.metrics().histogram("executor.batch_size").snapshot().mean();
  rep.ref_batch_mean =
      inst.metrics().histogram("executor.ref_batch_size").snapshot().mean();

  // --- the correctness gate ------------------------------------------------
  std::vector<std::vector<const Emitted*>> by_stream(n);
  for (const auto& e : emitted) {
    if (e.stream >= 0 && static_cast<std::size_t>(e.stream) < n) {
      by_stream[static_cast<std::size_t>(e.stream)].push_back(&e);
    } else {
      ++rep.mismatches;  // an output of no registered stream
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    const auto& st = stats.streams[s];
    eb::StreamCounts c;
    c.due = f;
    c.prefetch_in = st.prefetch.in;
    c.sdd_in = st.sdd.in;
    c.sdd_passed = st.sdd.passed;
    c.snm_in = st.snm.in;
    c.snm_passed = st.snm.passed;
    c.tyolo_in = st.tyolo.in;
    c.tyolo_passed = st.tyolo.passed;
    c.ref_in = st.ref.in;
    c.ref_passed = st.ref.passed;
    c.emitted = by_stream[s].size();
    c.dropped_at_ingest = st.dropped_at_ingest;
    c.discarded = st.fault.discarded_frames;
    c.poisoned = st.fault.poisoned_frames;
    c.degraded = st.fault.degraded_frames;
    rep.conserved = rep.conserved && eb::conserved(c);
    rep.due += f;
    rep.failed += c.failed();

    Funnel expected;
    std::vector<char> expect_emit(f, 0), seen(f, 0);
    for (std::size_t k = 0; k < f; ++k) {
      const auto& o = in.oracle[static_cast<std::size_t>(
          in.scene_index(static_cast<int>(s), static_cast<std::int64_t>(k)))];
      expected.add(o.fate);
      expect_emit[k] = o.fate == eb::Fate::kEmit;
    }
    std::uint64_t wrong = 0;
    for (const Emitted* e : by_stream[s]) {
      const auto k = static_cast<std::size_t>(e->k);
      if (e->k < 0 || k >= f || seen[k]) {
        ++wrong;
        continue;
      }
      seen[k] = 1;
      const auto& o = in.oracle[static_cast<std::size_t>(
          in.scene_index(static_cast<int>(s), e->k))];
      if (!expect_emit[k] || o.ref_detections != e->detections ||
          o.ref_targets != e->targets) {
        ++wrong;
      }
      rep.result_ms.push_back(seconds_between(logs[s].due[k], e->at) * 1e3);
    }
    std::uint64_t missing = 0;
    for (std::size_t k = 0; k < f; ++k) {
      if (expect_emit[k] && !seen[k]) {
        ++missing;
        rep.result_ms.push_back(kInf);  // counts as missing any latency limit
      }
      if (logs[s].lag_ms[k] >= 0.0) rep.lag_ms.push_back(logs[s].lag_ms[k]);
    }
    // A frame that got no verdict may be one of the missing survivors; the
    // stage funnel is compared exactly whenever the stream lost nothing.
    const std::uint64_t failed = c.failed();
    rep.mismatches += wrong + (missing > failed ? missing - failed : 0);
    rep.verdicts += f - std::min<std::uint64_t>(f, failed);
    const Funnel got{c.ended_at_sdd(), c.ended_at_snm(), c.ended_at_tyolo(),
                     c.emitted};
    if (failed == 0 && !(got == expected)) rep.funnel_ok = false;
    rep.funnel.sdd += got.sdd;
    rep.funnel.snm += got.snm;
    rep.funnel.tyolo += got.tyolo;
    rep.funnel.emitted += got.emitted;
  }
  return rep;
}

bool rep_correct(const Rep& r, bool online) {
  return r.conserved && r.funnel_ok && r.mismatches == 0 && (online || r.failed == 0);
}

/// Result latency of one repetition at percentile `p` under the ten-beyond
/// rule. A missing result is worse than any limit, so when the percentile
/// lands on one, the repetition's duration is the finite lower bound
/// reported.
eb::TailPercentile result_latency(const Rep& r, double p) {
  eb::TailPercentile t = eb::tail_percentile(r.result_ms, p);
  if (!std::isfinite(t.value)) t.value = r.wall_s * 1e3;
  return t;
}

void print_rep(const char* label, int i, const Rep& r) {
  const auto p50 = result_latency(r, 0.5), tail = result_latency(r, 0.99);
  std::printf(
      "%s rep %d: wall %.3f s  fps %.1f  cpu %.4f ms/frame  rss %.1f MB (%+.1f)  "
      "funnel: ended sdd %llu snm %llu tyolo %llu emitted %llu  failed %llu  "
      "mismatches %llu  conserved %s  results %zu: p50 %.2f ms, p%.2f %.2f ms\n",
      label, i, r.wall_s, r.fps, r.cpu_ms_per_frame, r.rss_mb, r.rss_growth_mb,
      static_cast<unsigned long long>(r.funnel.sdd),
      static_cast<unsigned long long>(r.funnel.snm),
      static_cast<unsigned long long>(r.funnel.tyolo),
      static_cast<unsigned long long>(r.funnel.emitted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.mismatches), r.conserved ? "yes" : "NO",
      tail.samples, p50.value, tail.percentile * 100.0, tail.value);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Isolated layer costs (trace runs).

struct CallCost {
  double wall_us = 0.0;
  double cpu_us = 0.0;
};

/// Time `calls` invocations of fn(i) after one untimed warm call.
template <typename Fn>
CallCost time_calls(std::int64_t calls, Fn&& fn) {
  if (calls <= 0) return {};
  fn(0);
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  for (std::int64_t i = 0; i < calls; ++i) fn(i);
  const double wall = seconds_between(t0, Clock::now());
  const double cpu = cpu_seconds() - c0;
  return {wall / static_cast<double>(calls) * 1e6,
          cpu / static_cast<double>(calls) * 1e6};
}

struct Probes {
  std::vector<video::Frame> all;    ///< Every 12th frame of the recording.
  std::vector<video::Frame> snm;    ///< Frames SDD passes.
  std::vector<video::Frame> tyolo;  ///< Frames SNM passes.
  std::vector<video::Frame> ref;    ///< Frames the reference model sees.
};

Probes collect_probes(const eb::Inputs& in) {
  Probes p;
  const auto take = [&](std::int64_t j, const video::Frame& fr) {
    const auto fate = in.oracle[static_cast<std::size_t>(j)].fate;
    if (j % 12 == 0) p.all.push_back(fr);
    if (fate >= eb::Fate::kSnm && p.snm.size() < 64) p.snm.push_back(fr);
    if (fate >= eb::Fate::kTyolo && p.tyolo.size() < 64) p.tyolo.push_back(fr);
    if (fate == eb::Fate::kEmit && p.ref.size() < 32) p.ref.push_back(fr);
  };
  if (in.spec->stored) {
    std::int64_t j = 0;
    for (const auto& seg : in.segments) {
      for (const auto& fr : eb::decode_all(*seg)) take(j++, fr);
    }
  } else {
    for (std::size_t j = 0; j < in.frames.size(); ++j) {
      take(static_cast<std::int64_t>(j), in.frames[j]);
    }
  }
  return p;
}

struct LayerCosts {
  CallCost decode, resize, sdd, snm_per_frame, tyolo, ref_per_frame;
  CallCost gemm_tyolo, gemm_snm;
};

LayerCosts measure_layers(const eb::Inputs& in, std::uint64_t seed) {
  const core::FfsVaConfig cfg;
  const auto& m = in.models;
  const Probes p = collect_probes(in);
  LayerCosts c;

  // video: VideoReader::next() over one segment of the recording. Replay
  // workloads never decode in the engine; their recording's first frames
  // are encoded here so the per-call cost is still of this workload's
  // frames (the ledger weights it by decoded_frac = 0 there).
  {
    std::shared_ptr<const video::StoredVideo> v;
    if (in.spec->stored) {
      v = in.segments.front();
    } else {
      const std::vector<video::Frame> head(in.frames.begin(), in.frames.begin() + 64);
      v = std::make_shared<const video::StoredVideo>(
          video::StoredVideo::encode(head, 32, 4));
    }
    video::VideoReader warm(*v);
    (void)warm.next();
    video::VideoReader reader(*v);
    c.decode = time_calls(v->frame_count() - 1, [&](std::int64_t) { (void)reader.next(); });
  }
  const auto all = static_cast<std::int64_t>(p.all.size());
  c.resize = time_calls(all, [&](std::int64_t i) {
    (void)image::resize_bilinear(p.all[static_cast<std::size_t>(i)].image,
                                 m.sdd->config().width, m.sdd->config().height);
  });
  c.sdd = time_calls(all, [&](std::int64_t i) {
    (void)m.sdd->distance(p.all[static_cast<std::size_t>(i)].image);
  });
  if (!p.snm.empty()) {
    const int b = cfg.batch_size;
    std::vector<const image::Image*> batch;
    for (int i = 0; i < b; ++i) {
      batch.push_back(&p.snm[static_cast<std::size_t>(i) % p.snm.size()].image);
    }
    const CallCost per_batch =
        time_calls(32, [&](std::int64_t) { (void)m.snm->predict_batch(batch); });
    c.snm_per_frame = {per_batch.wall_us / b, per_batch.cpu_us / b};
  }
  if (!p.tyolo.empty()) {
    c.tyolo = time_calls(128, [&](std::int64_t i) {
      (void)m.tyolo->detect(p.tyolo[static_cast<std::size_t>(i) % p.tyolo.size()].image);
    });
  }
  if (!p.ref.empty()) {
    const int b = cfg.ref_batch_size;
    std::vector<const image::Image*> batch;
    for (int i = 0; i < b; ++i) {
      batch.push_back(&p.ref[static_cast<std::size_t>(i) % p.ref.size()].image);
    }
    const CallCost per_batch =
        time_calls(12, [&](std::int64_t) { (void)m.reference->detect_batch(batch); });
    c.ref_per_frame = {per_batch.wall_us / b, per_batch.cpu_us / b};
  }
  // nn: the blocked GEMM at the shapes bench_gemm_kernels uses for the
  // T-YOLO and SNM second convolutions.
  const auto gemm_cost = [&](int mm, int kk, int nn, std::int64_t calls) {
    ffsva::runtime::Xoshiro256 rng(seed + static_cast<std::uint64_t>(mm * kk * nn));
    std::vector<float> a(static_cast<std::size_t>(mm) * kk);
    std::vector<float> b(static_cast<std::size_t>(kk) * nn);
    std::vector<float> out(static_cast<std::size_t>(mm) * nn);
    for (auto& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return time_calls(calls, [&](std::int64_t) {
      ffsva::nn::gemm(a.data(), b.data(), out.data(), mm, kk, nn);
    });
  };
  c.gemm_tyolo = gemm_cost(32, 144, 676, 400);
  c.gemm_snm = gemm_cost(16, 72, 169, 4000);
  return c;
}

/// Per-stage figures from a traced run's spans.
struct StageSpans {
  std::vector<eb::Interval> busy;
  double total_us = 0.0;
  double frames = 0.0;
  std::set<std::uint32_t> threads;
};

std::string provenance_json(const eb::WorkloadSpec& spec, const std::string& git_sha,
                            std::uint64_t seed, int seconds, bool trace) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) load[0] = -1.0;
  const char* env = std::getenv("FFSVA_THREADS");
  const int par = ffsva::runtime::compute_parallelism();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %d, \"trace\": %d, \"git_sha\": \"%s\", "
                "\"build_type\": \"%s\", \"nproc\": %u, \"ffsva_threads_env\": \"%s\", "
                "\"compute_parallelism\": %d, \"sdd_pool\": %d, \"loadavg_1m\": %.2f}}",
                spec.name.c_str(), static_cast<unsigned long long>(seed), seconds,
                trace ? 1 : 0, git_sha.c_str(), ENGINEBENCH_BUILD_TYPE,
                std::thread::hardware_concurrency(), env ? env : "",
                par, std::clamp(par, 1, spec.streams), load[0]);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: enginebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>]\nworkloads:");
  for (const auto& w : eb::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  std::string workload, git_sha = "unknown";
  std::uint64_t seed = 0;
  int seconds = 0, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::atoi(val);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--git-sha") git_sha = val;
    else return usage();
  }
  const eb::WorkloadSpec* spec = eb::find_workload(workload);
  if (!spec || seconds < 1 || (trace != 0 && trace != 1) || argc % 2 == 0) {
    return usage();
  }
  const bool traced = trace == 1;
  std::printf("%s\n", provenance_json(*spec, git_sha, seed, seconds, traced).c_str());
  std::fflush(stdout);

  // Untimed set-up: the recording, the models (specialize_stream timed), the
  // oracle. Set-up is repeated only where setup_s is reported.
  const auto setup_t0 = Clock::now();
  const eb::Inputs in = eb::build_inputs(*spec, seed, traced ? 1 : 3);
  {
    Funnel o;
    for (const auto& fr : in.oracle) o.add(fr.fate);
    const double sf = static_cast<double>(spec->scene_frames);
    std::printf("regime %s: %lld scene frames end at sdd %.4f snm %.4f tyolo %.4f, "
                "emitted %.4f; inputs ready in %.1f s; specialize_stream s:",
                spec->name.c_str(), static_cast<long long>(spec->scene_frames),
                o.sdd / sf, o.snm / sf, o.tyolo / sf, o.emitted / sf,
                seconds_between(setup_t0, Clock::now()));
    for (const double v : in.setup_s) std::printf(" %.3f", v);
    std::printf("\n");
  }

  if (!traced) {
    std::vector<Rep> reps;
    double measured = 0.0;
    const int min_reps = spec->online ? 1 : 3;
    while (static_cast<int>(reps.size()) < min_reps || measured < seconds) {
      reps.push_back(run_engine(in, false));
      measured += reps.back().wall_s;
      print_rep("engine", static_cast<int>(reps.size()), reps.back());
      if (reps.size() >= 64) break;
    }
    bool correct = true;
    std::uint64_t due = 0, failed = 0, verdicts = 0, mismatches = 0;
    std::vector<double> fps, cpu, rss;
    for (const auto& r : reps) {
      correct = correct && rep_correct(r, spec->online) && r.funnel == reps.front().funnel;
      due += r.due;
      failed += r.failed;
      verdicts += r.verdicts;
      mismatches += r.mismatches;
      fps.push_back(r.fps);
      cpu.push_back(r.cpu_ms_per_frame);
      rss.push_back(r.rss_mb);
    }
    print_result(
        correct, due, failed,
        {{"fps", eb::median(fps), "1/s"},
         {"cpu_ms_per_frame", eb::median(cpu), "ms"},
         {"served_frac", due ? 1.0 - static_cast<double>(failed) / due : 0.0, "share"},
         {"verdict_match",
          verdicts ? 1.0 - static_cast<double>(mismatches) / verdicts : 0.0, "share"},
         {"setup_s", eb::median(in.setup_s), "s"},
         {"rss_mb", eb::median(rss), "MB"}});
    return 0;
  }

  // --- traced: isolated layer costs, then untraced + traced engine runs ----
  const LayerCosts lc = measure_layers(in, seed);
  const Rep plain = run_engine(in, false);
  print_rep("untraced", 1, plain);
  const Rep tr = run_engine(in, true);
  print_rep("traced", 1, tr);
  const bool correct = rep_correct(plain, spec->online) && rep_correct(tr, spec->online);

  std::map<std::string, StageSpans> stages;
  for (const auto& s : tr.spans) {
    const std::string name = s.name;
    std::string stage;
    if (name == "sdd.filter") stage = "sdd";
    else if (name == "snm.batch") stage = "snm";
    else if (name == "tyolo.batch") stage = "tyolo";
    else if (name == "ref.batch" || name == "ref.detect") stage = "ref";
    else continue;
    StageSpans& st = stages[stage];
    st.busy.push_back({s.tid, s.t_start_us, s.t_end_us});
    st.total_us += static_cast<double>(s.t_end_us - s.t_start_us);
    st.frames += stage == "sdd" ? 1.0 : static_cast<double>(std::max(s.batch, 0));
    st.threads.insert(s.tid);
  }
  const double wall_us = tr.wall_s * 1e6;
  const auto busy = [&](std::initializer_list<const char*> names) {
    std::vector<eb::Interval> spans;
    std::set<std::uint32_t> threads;
    for (const char* n : names) {
      const auto& st = stages[n];
      spans.insert(spans.end(), st.busy.begin(), st.busy.end());
      threads.insert(st.threads.begin(), st.threads.end());
    }
    return eb::busy_fraction(spans, wall_us, std::max<int>(1, static_cast<int>(threads.size())));
  };
  const double busy_sdd = busy({"sdd"});
  const double busy_gpu0 = busy({"snm", "tyolo"});
  const double busy_ref = busy({"ref"});
  const char* bottleneck = busy_sdd >= busy_gpu0 && busy_sdd >= busy_ref ? "sdd"
                           : busy_gpu0 >= busy_ref                      ? "gpu0"
                                                                        : "ref";
  std::printf("bottleneck: %s (busy sdd %.3f on %zu threads, gpu0 %.3f, ref %.3f)\n",
              bottleneck, busy_sdd, stages["sdd"].threads.size(), busy_gpu0, busy_ref);
  const auto span_per_frame = [&](const char* n) {
    const auto& st = stages[n];
    return st.frames > 0 ? st.total_us / st.frames : 0.0;
  };
  const double qn = static_cast<double>(std::max<std::uint64_t>(1, tr.queues.n));
  const double depth_sdd = tr.queues.sdd / qn, depth_snm = tr.queues.snm / qn;
  const double depth_tyolo = tr.queues.tyolo / qn, depth_ref = tr.queues.ref / qn;
  const auto rate = [&](const ffsva::runtime::StageCounters& c) {
    return static_cast<double>(c.in) / tr.wall_s;
  };

  // The ledger: engine CPU per ingested frame against the isolated CPU of
  // the model calls the engine made per ingested frame.
  const double ing = static_cast<double>(std::max<std::uint64_t>(1, plain.ingested));
  const double decoded_frac = static_cast<double>(plain.decoded) / ing;
  const double l_decode = decoded_frac * lc.decode.cpu_us / 1e3;
  const double l_sdd = static_cast<double>(plain.sdd.in) / ing * lc.sdd.cpu_us / 1e3;
  const double l_snm =
      static_cast<double>(plain.snm.in) / ing * lc.snm_per_frame.cpu_us / 1e3;
  const double l_tyolo = static_cast<double>(plain.tyolo.in) / ing * lc.tyolo.cpu_us / 1e3;
  const double l_ref =
      static_cast<double>(plain.ref.in) / ing * lc.ref_per_frame.cpu_us / 1e3;
  const double l_sum = l_decode + l_sdd + l_snm + l_tyolo + l_ref;
  const auto share = [&](double v) { return l_sum > 0 ? v / l_sum : 0.0; };
  std::printf("ledger ms/frame: decode %.4f sdd %.4f snm %.4f tyolo %.4f ref %.4f "
              "| layers %.4f of engine %.4f\n",
              l_decode, l_sdd, l_snm, l_tyolo, l_ref, l_sum, plain.cpu_ms_per_frame);
  const auto frac = [](const ffsva::runtime::StageCounters& c) { return c.pass_rate(); };

  print_result(
      correct, plain.due + tr.due, plain.failed + tr.failed,
      {{"video.decode_us", lc.decode.wall_us, "us"},
       {"video.decoded_frac", decoded_frac, "share"},
       {"image.resize_sdd_us", lc.resize.wall_us, "us"},
       {"image.resize_sdd_cpu_us", lc.resize.cpu_us, "us"},
       {"nn.gemm_tyolo_conv2_us", lc.gemm_tyolo.wall_us, "us"},
       {"nn.gemm_snm_conv2_us", lc.gemm_snm.wall_us, "us"},
       {"sdd.distance_us", lc.sdd.wall_us, "us"},
       {"sdd.distance_cpu_us", lc.sdd.cpu_us, "us"},
       {"snm.batch_us_per_frame", lc.snm_per_frame.wall_us, "us"},
       {"tyolo.detect_us", lc.tyolo.wall_us, "us"},
       {"ref.batch_us_per_frame", lc.ref_per_frame.wall_us, "us"},
       {"sdd.pass_frac", frac(plain.sdd), "share"},
       {"snm.pass_frac", frac(plain.snm), "share"},
       {"tyolo.pass_frac", frac(plain.tyolo), "share"},
       {"ref.reach_frac", static_cast<double>(plain.ref.in) / ing, "share"},
       {"core.sdd.busy_frac", busy_sdd, "share"},
       {"core.gpu0.busy_frac", busy_gpu0, "share"},
       {"core.ref.busy_frac", busy_ref, "share"},
       {"core.sdd.span_us_per_frame", span_per_frame("sdd"), "us"},
       {"core.snm.span_us_per_frame", span_per_frame("snm"), "us"},
       {"core.tyolo.span_us_per_frame", span_per_frame("tyolo"), "us"},
       {"core.ref.span_us_per_frame", span_per_frame("ref"), "us"},
       {"core.sdd.depth_mean", depth_sdd, "frames"},
       {"core.snm.depth_mean", depth_snm, "frames"},
       {"core.tyolo.depth_mean", depth_tyolo, "frames"},
       {"core.ref.depth_mean", depth_ref, "frames"},
       {"core.sdd.wait_ms", eb::littles_wait_ms(depth_sdd, rate(tr.sdd)), "ms"},
       {"core.snm.wait_ms", eb::littles_wait_ms(depth_snm, rate(tr.snm)), "ms"},
       {"core.tyolo.wait_ms", eb::littles_wait_ms(depth_tyolo, rate(tr.tyolo)), "ms"},
       {"core.ref.wait_ms", eb::littles_wait_ms(depth_ref, rate(tr.ref)), "ms"},
       {"core.snm.batch_mean", plain.snm_batch_mean, "frames"},
       {"core.ref.batch_mean", plain.ref_batch_mean, "frames"},
       {"core.prefetch.lag_p99_ms", eb::tail_percentile(plain.lag_ms, 0.99).value, "ms"},
       {"core.overhead_cpu_ms_per_frame", plain.cpu_ms_per_frame - l_sum, "ms"},
       {"core.rss_growth_mb", plain.rss_growth_mb, "MB"},
       {"result.p50_ms", result_latency(plain, 0.5).value, "ms"},
       {"result.p99_ms", result_latency(plain, 0.99).value, "ms"},
       {"telemetry.trace_overhead_pct", (plain.fps - tr.fps) / plain.fps * 100.0, "%"},
       {"ledger.decode.cpu_share", share(l_decode), "share"},
       {"ledger.sdd.cpu_share", share(l_sdd), "share"},
       {"ledger.snm.cpu_share", share(l_snm), "share"},
       {"ledger.tyolo.cpu_share", share(l_tyolo), "share"},
       {"ledger.ref.cpu_share", share(l_ref), "share"}});
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "enginebench: %s\n", e.what());
    return 1;
  }
}
