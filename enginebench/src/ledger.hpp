// The benchmark's own arithmetic: latency percentiles under the
// ten-beyond rule, Little's-law queue waits, stage busy fractions from
// trace spans, and the per-stream frame-conservation check. Pure functions
// over plain values, so enginebench_tests can pin them on tiny inputs.
#pragma once

#include <cstdint>
#include <vector>

namespace enginebench {

/// A tail percentile that has at least `min_beyond` samples above it.
struct TailPercentile {
  double value = 0.0;       ///< Sample at the chosen rank.
  double percentile = 0.0;  ///< Rank / n actually reported, in (0, 1].
  std::size_t samples = 0;  ///< n.
};

/// Nearest-rank percentile `p` of `samples`, lowered to the highest rank
/// that still leaves `min_beyond` samples above it when n is too small for
/// `p` (rank r = min(ceil(p * n), n - min_beyond), clamped to >= 1).
/// Infinite samples (results that never came) sort last and count as
/// beyond any finite limit. Empty input returns {0, 0, 0}.
TailPercentile tail_percentile(std::vector<double> samples, double p,
                               std::size_t min_beyond = 10);

/// Median (mean of the two middle values for even n); 0 for empty input.
double median(std::vector<double> v);

/// Little's law: mean wait = mean queue depth / arrival rate, in ms.
/// Zero when nothing arrived.
double littles_wait_ms(double depth_mean, double arrivals_per_sec);

/// One busy interval of a worker thread (a trace span), in microseconds.
struct Interval {
  std::uint32_t thread = 0;
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
};

/// Share of `threads` x `wall_us` during which the threads were busy. Spans
/// of one thread that overlap or nest are counted once (interval union per
/// thread); spans of different threads add up.
double busy_fraction(std::vector<Interval> spans, double wall_us, int threads);

/// Per-stream frame accounting of one run: what was due, the engine's
/// stage counters (runtime::StageCounters in/passed), what reached the
/// sink, and the fault counters that end a frame without a verdict.
struct StreamCounts {
  std::uint64_t due = 0;          ///< Frames the source handed out.
  std::uint64_t prefetch_in = 0;  ///< Frames the engine pulled.
  std::uint64_t sdd_in = 0, sdd_passed = 0;
  std::uint64_t snm_in = 0, snm_passed = 0;
  std::uint64_t tyolo_in = 0, tyolo_passed = 0;
  std::uint64_t ref_in = 0, ref_passed = 0;
  std::uint64_t emitted = 0;  ///< OutputEvents seen at the sink.
  std::uint64_t dropped_at_ingest = 0;
  std::uint64_t discarded = 0;
  std::uint64_t poisoned = 0;
  std::uint64_t degraded = 0;

  std::uint64_t ended_at_sdd() const { return sdd_in - sdd_passed; }
  std::uint64_t ended_at_snm() const { return snm_in - snm_passed; }
  std::uint64_t ended_at_tyolo() const { return tyolo_in - tyolo_passed; }
  /// Frames that got no verdict from the full cascade.
  std::uint64_t failed() const {
    return dropped_at_ingest + discarded + poisoned + degraded;
  }
};

/// Conservation: every due frame was pulled, and every pulled frame ended
/// at exactly one of SDD, SNM, T-YOLO, the reference stage (emitted or
/// dropped there), ingest drop or discard; the sink saw every emission.
bool conserved(const StreamCounts& c);

}  // namespace enginebench
