// The benchmark's own arithmetic on tiny inputs.
#include "ledger.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace enginebench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, P99NeedsTenSamplesBeyond) {
  // 1000 samples: rank ceil(0.99 * 1000) = 990 leaves exactly ten above.
  const auto p = tail_percentile(one_to(1000), 0.99);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  EXPECT_DOUBLE_EQ(p.percentile, 0.99);
  EXPECT_EQ(p.samples, 1000u);
}

TEST(TailPercentile, FallsBackToHighestRankWithTenBeyond) {
  // 200 samples: p99 would be rank 198 with two above; rank 190 keeps ten.
  const auto p = tail_percentile(one_to(200), 0.99);
  EXPECT_DOUBLE_EQ(p.value, 190.0);
  EXPECT_DOUBLE_EQ(p.percentile, 0.95);
  // The median is unaffected by the rule.
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(200), 0.5).value, 100.0);
}

TEST(TailPercentile, TooFewSamplesReportTheLowestRank) {
  const auto p = tail_percentile(one_to(5), 0.99);
  EXPECT_DOUBLE_EQ(p.value, 1.0);
  EXPECT_EQ(tail_percentile({}, 0.99).samples, 0u);
}

TEST(TailPercentile, MissingResultsSortLast) {
  std::vector<double> v = one_to(990);
  for (int i = 0; i < 10; ++i) v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(tail_percentile(v, 0.99).value, 990.0);
  v.push_back(std::numeric_limits<double>::infinity());  // an eleventh miss
  EXPECT_TRUE(std::isinf(tail_percentile(v, 0.99).value));
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(LittlesLaw, WaitIsDepthOverArrivalRate) {
  // Two frames queued on average, 400 arriving per second: 5 ms each.
  EXPECT_DOUBLE_EQ(littles_wait_ms(2.0, 400.0), 5.0);
  EXPECT_DOUBLE_EQ(littles_wait_ms(3.0, 0.0), 0.0);
}

TEST(BusyFraction, OverlappingSpansOnOneThreadCountOnce) {
  // Thread 1: [0,40) and nested/overlapping [10,30), [35,60) -> busy 60.
  // Thread 2: [0,20) and disjoint [50,70) -> busy 40.
  const std::vector<Interval> spans = {
      {1, 10, 30}, {1, 0, 40}, {1, 35, 60}, {2, 50, 70}, {2, 0, 20}};
  EXPECT_DOUBLE_EQ(busy_fraction(spans, 100.0, 2), 100.0 / 200.0);
  // One thread alone: nesting must not exceed 100%.
  EXPECT_DOUBLE_EQ(busy_fraction({{7, 0, 100}, {7, 10, 90}}, 100.0, 1), 1.0);
  EXPECT_DOUBLE_EQ(busy_fraction({}, 0.0, 1), 0.0);
}

StreamCounts clean_stream() {
  // 100 frames: 60 end at SDD, 20 at SNM, 5 at T-YOLO, 15 emitted.
  StreamCounts c;
  c.due = c.prefetch_in = 100;
  c.sdd_in = 100;
  c.sdd_passed = 40;
  c.snm_in = 40;
  c.snm_passed = 20;
  c.tyolo_in = 20;
  c.tyolo_passed = 15;
  c.ref_in = c.ref_passed = c.emitted = 15;
  return c;
}

TEST(Conservation, CleanStreamIsConserved) {
  EXPECT_TRUE(conserved(clean_stream()));
  EXPECT_EQ(clean_stream().failed(), 0u);
}

TEST(Conservation, CatchesAnInjectedLostFrame) {
  // The engine pulled 100 frames but only 99 reached a terminal outcome.
  StreamCounts lost = clean_stream();
  lost.sdd_in = 99;
  lost.sdd_passed = 39;
  lost.snm_in = 39;
  lost.snm_passed = 19;
  lost.tyolo_in = 19;
  lost.tyolo_passed = 15;
  EXPECT_FALSE(conserved(lost));
  // An emission the sink never saw.
  StreamCounts unseen = clean_stream();
  unseen.emitted = 14;
  EXPECT_FALSE(conserved(unseen));
  // A frame the engine never pulled.
  StreamCounts unpulled = clean_stream();
  unpulled.due = 101;
  EXPECT_FALSE(conserved(unpulled));
}

TEST(Conservation, IngestDropsAreFailuresNotLosses) {
  StreamCounts c = clean_stream();
  c.due = c.prefetch_in = 103;
  c.dropped_at_ingest = 3;
  EXPECT_TRUE(conserved(c));
  EXPECT_EQ(c.failed(), 3u);
}

}  // namespace
}  // namespace enginebench
