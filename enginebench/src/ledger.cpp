#include "ledger.hpp"

#include <algorithm>
#include <cmath>

namespace enginebench {

TailPercentile tail_percentile(std::vector<double> samples, double p,
                               std::size_t min_beyond) {
  TailPercentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::min(rank, n > min_beyond ? n - min_beyond : std::size_t{1});
  rank = std::clamp<std::size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.percentile = static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double littles_wait_ms(double depth_mean, double arrivals_per_sec) {
  return arrivals_per_sec > 0.0 ? depth_mean / arrivals_per_sec * 1e3 : 0.0;
}

double busy_fraction(std::vector<Interval> spans, double wall_us, int threads) {
  if (wall_us <= 0.0 || threads <= 0) return 0.0;
  std::sort(spans.begin(), spans.end(), [](const Interval& a, const Interval& b) {
    return a.thread != b.thread ? a.thread < b.thread : a.begin_us < b.begin_us;
  });
  double busy_us = 0.0;
  std::size_t i = 0;
  while (i < spans.size()) {
    // Sweep one thread's spans in start order, merging overlaps.
    const std::uint32_t thread = spans[i].thread;
    std::int64_t lo = spans[i].begin_us, hi = spans[i].end_us;
    for (++i; i < spans.size() && spans[i].thread == thread; ++i) {
      if (spans[i].begin_us > hi) {
        busy_us += static_cast<double>(hi - lo);
        lo = spans[i].begin_us;
      }
      hi = std::max(hi, spans[i].end_us);
    }
    busy_us += static_cast<double>(hi - lo);
  }
  return busy_us / (wall_us * threads);
}

bool conserved(const StreamCounts& c) {
  if (c.prefetch_in != c.due) return false;
  if (c.sdd_passed > c.sdd_in || c.snm_passed > c.snm_in ||
      c.tyolo_passed > c.tyolo_in || c.ref_passed > c.ref_in) {
    return false;
  }
  const std::uint64_t ended = c.ended_at_sdd() + c.ended_at_snm() +
                              c.ended_at_tyolo() + c.ref_in +
                              c.dropped_at_ingest + c.discarded;
  return ended == c.prefetch_in && c.emitted == c.ref_passed;
}

}  // namespace enginebench
