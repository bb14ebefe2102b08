// Trace spans: per-thread ring recording, the enable/disable toggle, ring
// overwrite bounds, multi-thread collection, and the chrome://tracing JSON
// exporter (validated with the strict test-side JSON reader — the exported
// document must load in chrome://tracing / Perfetto, so well-formedness is
// part of the contract).
#include "telemetry/spans.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_reader.hpp"

namespace ffsva::telemetry {
namespace {

Span make_span(const char* name, Stage stage, std::int64_t t0, std::int64_t t1,
               int stream = 0, std::int64_t frame = -1, int batch = 0) {
  Span s;
  s.name = name;
  s.stage = stage;
  s.stream = stream;
  s.frame = frame;
  s.batch = batch;
  s.t_start_us = t0;
  s.t_end_us = t1;
  return s;
}

TEST(TraceBuffer, DisabledRecordIsNoOp) {
  TraceBuffer buf(8);
  EXPECT_FALSE(buf.enabled());
  buf.record(make_span("x", Stage::kSdd, 0, 1));
  EXPECT_TRUE(buf.collect().empty());
}

TEST(TraceBuffer, RecordCollectRoundTrip) {
  TraceBuffer buf(8);
  buf.enable();
  buf.record(make_span("decode", Stage::kPrefetch, 10, 20, /*stream=*/3,
                       /*frame=*/7));
  buf.record(make_span("snm.batch", Stage::kSnm, 5, 30, /*stream=*/-1,
                       /*frame=*/-1, /*batch=*/16));
  const auto spans = buf.collect();
  ASSERT_EQ(spans.size(), 2u);
  // Oldest (earliest start) first.
  EXPECT_STREQ(spans[0].name, "snm.batch");
  EXPECT_EQ(spans[0].batch, 16);
  EXPECT_STREQ(spans[1].name, "decode");
  EXPECT_EQ(spans[1].stream, 3);
  EXPECT_EQ(spans[1].frame, 7);
  // Both spans came from this thread: same recorder slot stamped in.
  EXPECT_EQ(spans[0].tid, spans[1].tid);
}

TEST(TraceBuffer, RingKeepsOnlyTheTail) {
  TraceBuffer buf(4);
  buf.enable();
  for (int i = 0; i < 10; ++i) {
    buf.record(make_span("s", Stage::kSdd, i, i + 1));
  }
  const auto spans = buf.collect();
  ASSERT_EQ(spans.size(), 4u);  // bounded by ring capacity
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].t_start_us, 6 + i);
  }
}

TEST(TraceBuffer, EnableResetsPreviousRun) {
  TraceBuffer buf(8);
  buf.enable();
  buf.record(make_span("old", Stage::kSdd, 0, 1));
  buf.disable();
  buf.enable();  // new run: old spans must not leak into the new trace
  EXPECT_TRUE(buf.collect().empty());
  buf.record(make_span("new", Stage::kSdd, 0, 1));
  ASSERT_EQ(buf.collect().size(), 1u);
  EXPECT_STREQ(buf.collect()[0].name, "new");
}

TEST(TraceBuffer, ManyThreadsRecordWithoutLoss) {
  TraceBuffer buf(1 << 12);
  buf.enable();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buf, t] {
      for (int i = 0; i < kPerThread; ++i) {
        buf.record(make_span("w", Stage::kSdd, t * 1000 + i, t * 1000 + i + 1,
                             /*stream=*/t));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto spans = buf.collect();
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(ScopedSpan, RecordsWithLateBatchSize) {
  TraceBuffer buf(8);
  buf.enable();
  {
    ScopedSpan span(buf, "tyolo.batch", Stage::kTyolo, /*stream=*/-1);
    span.set_batch(5);  // known only after the work
  }
  const auto spans = buf.collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].stage, Stage::kTyolo);
  EXPECT_EQ(spans[0].batch, 5);
  EXPECT_GE(spans[0].t_end_us, spans[0].t_start_us);
}

TEST(ScopedSpan, DisabledBufferRecordsNothing) {
  TraceBuffer buf(8);
  { ScopedSpan span(buf, "x", Stage::kSdd); }
  EXPECT_TRUE(buf.collect().empty());
}

TEST(ChromeTrace, ExportIsValidJsonWithAllStages) {
  TraceBuffer buf(64);
  buf.enable();
  buf.record(make_span("decode", Stage::kPrefetch, 0, 5, 0, 1));
  buf.record(make_span("sdd.filter", Stage::kSdd, 5, 9, 0, 1));
  buf.record(make_span("snm.batch", Stage::kSnm, 9, 20, -1, -1, 8));
  buf.record(make_span("tyolo.batch", Stage::kTyolo, 20, 33, -1, -1, 4));
  buf.record(make_span("ref.detect", Stage::kRef, 33, 50, 0, 1));

  std::ostringstream os;
  buf.write_chrome_trace(os);
  const std::string doc = os.str();

  EXPECT_TRUE(testing::parse_json(doc).has_value()) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  for (const char* cat : {"prefetch", "sdd", "snm", "tyolo", "ref"}) {
    EXPECT_NE(doc.find("\"cat\":\"" + std::string(cat) + "\""),
              std::string::npos)
        << cat;
  }
  EXPECT_NE(doc.find("\"batch\":8"), std::string::npos);
  // Complete-event format with microsecond timestamps.
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":9"), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":11"), std::string::npos);
}

TEST(ChromeTrace, ZeroLengthSpanGetsVisibleDuration) {
  TraceBuffer buf(8);
  buf.enable();
  buf.record(make_span("tick", Stage::kSupervise, 42, 42));
  std::ostringstream os;
  buf.write_chrome_trace(os);
  // dur is clamped to 1 us so the event renders in a viewer.
  EXPECT_NE(os.str().find("\"dur\":1"), std::string::npos);
  EXPECT_TRUE(testing::parse_json(os.str()).has_value());
}

}  // namespace
}  // namespace ffsva::telemetry
