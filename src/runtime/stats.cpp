#include "runtime/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ffsva::runtime {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::size_t Histogram::bucket_index(double value) {
  if (!(value > 1.0)) return 0;  // [0,1] and NaN land in bucket 0
  int exp = 0;
  const double frac = std::frexp(value, &exp);  // value = frac * 2^exp, frac in [0.5,1)
  // Octave = exp-1; position within octave from the fraction.
  const int octave = std::clamp(exp - 1, 0, 62);
  const int sub = std::clamp(
      static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets), 0, kSubBuckets - 1);
  return static_cast<std::size_t>(octave * kSubBuckets + sub) + 1;
}

double Histogram::bucket_value(std::size_t index) {
  if (index == 0) return 0.5;
  const std::size_t i = index - 1;
  const auto octave = static_cast<int>(i / kSubBuckets);
  const auto sub = static_cast<int>(i % kSubBuckets);
  const double frac = 0.5 + (static_cast<double>(sub) + 0.5) / (2.0 * kSubBuckets);
  return std::ldexp(frac, octave + 1);
}

void Histogram::add(double value) {
  stats_.add(value);
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  ++buckets_[std::min(bucket_index(value), kBuckets - 1)];
}

void Histogram::merge(const Histogram& other) {
  if (other.buckets_.empty()) return;
  stats_.merge(other.stats_);
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = stats_.count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target) {
      // Clamp the bucket's representative value into the observed range so
      // bucketing error never reports beyond min/max.
      return std::clamp(bucket_value(i), stats_.min(), stats_.max());
    }
  }
  return stats_.max();
}

std::string Histogram::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
                static_cast<unsigned long long>(count()), mean(), p50(), p90(),
                p99(), max());
  return buf;
}

}  // namespace ffsva::runtime
