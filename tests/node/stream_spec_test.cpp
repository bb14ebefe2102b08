// StreamSpec and control-message serialization: exact round-trips, hostile
// payload rejection, and the determinism contract a resumed segment relies
// on — the same spec materializes the same specialized models on any node.
#include "node/stream_spec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "node/protocol.hpp"

namespace ffsva::node {
namespace {

StreamSpec sample_spec() {
  StreamSpec s;
  s.stream_id = 9;
  s.profile = Profile::kCoral;
  s.tor = 0.37;
  s.seed = 0xdeadbeefULL;
  s.calib_frames = 12;
  s.begin = 40;
  s.end = 900;
  s.snm_epochs = 3;
  s.width = 64;
  s.height = 48;
  return s;
}

TEST(StreamSpec, SerializeParseRoundTrip) {
  const StreamSpec s = sample_spec();
  const auto parsed = StreamSpec::parse(s.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stream_id, s.stream_id);
  EXPECT_EQ(parsed->profile, s.profile);
  EXPECT_DOUBLE_EQ(parsed->tor, s.tor);
  EXPECT_EQ(parsed->seed, s.seed);
  EXPECT_EQ(parsed->calib_frames, s.calib_frames);
  EXPECT_EQ(parsed->begin, s.begin);
  EXPECT_EQ(parsed->end, s.end);
  EXPECT_EQ(parsed->snm_epochs, s.snm_epochs);
  EXPECT_EQ(parsed->width, s.width);
  EXPECT_EQ(parsed->height, s.height);
}

TEST(StreamSpec, ParseRejectsHostileBytes) {
  const StreamSpec s = sample_spec();
  const std::string good = s.serialize();
  // Truncation at every prefix length must fail cleanly, never crash.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(StreamSpec::parse(good.substr(0, len)).has_value())
        << "prefix " << len;
  }
  // Inverted window (end < begin) is semantically invalid.
  StreamSpec bad = s;
  bad.begin = 900;
  bad.end = 40;
  EXPECT_FALSE(StreamSpec::parse(bad.serialize()).has_value());
  // Serving before the calibration window would replay calib frames.
  StreamSpec early = s;
  early.calib_frames = 50;
  early.begin = 10;
  EXPECT_FALSE(StreamSpec::parse(early.serialize()).has_value());
}

TEST(StreamSpec, MaterializeIsDeterministicAcrossNodes) {
  StreamSpec s = sample_spec();
  s.end = 80;  // keep the render short
  MaterializedStream a = materialize(s);
  MaterializedStream b = materialize(s);
  // Two independent materializations (as two nodes would perform) must
  // produce identical per-frame verdict behaviour; probe via the sources.
  for (int i = 0; i < 40; ++i) {
    auto fa = a.source->next();
    auto fb = b.source->next();
    ASSERT_EQ(fa.has_value(), fb.has_value()) << "frame " << i;
    if (!fa) break;
    EXPECT_EQ(fa->index, fb->index);
    EXPECT_EQ(fa->stream_id, static_cast<int>(s.stream_id));
    EXPECT_TRUE(fa->image == fb->image) << "frame " << i;
  }
}

TEST(StreamSpec, ResumedSourceContinuesAtCursor) {
  StreamSpec s = sample_spec();
  s.begin = 40;
  s.end = 60;
  MaterializedStream full = materialize(s);
  auto first = full.source->next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->index, std::int64_t{40});

  StreamSpec resumed = s;
  resumed.begin = 50;  // as if 10 frames were served before the hand-off
  MaterializedStream rest = materialize(resumed);
  auto cont = rest.source->next();
  ASSERT_TRUE(cont.has_value());
  EXPECT_EQ(cont->index, std::int64_t{50});
  std::uint64_t count = 1;
  while (rest.source->next()) ++count;
  EXPECT_EQ(count, 10u);
}

TEST(Protocol, AssignAndResultsRoundTrip) {
  AssignStream as;
  as.spec = sample_spec();
  as.resume = true;
  const auto parsed = AssignStream::parse(as.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->resume);
  EXPECT_EQ(parsed->spec.stream_id, 9u);
  EXPECT_EQ(parsed->spec.end, 900u);

  StreamResults res;
  res.stream_id = 9;
  res.emitted_frames = {40, 41, 55, 899};
  const auto rr = StreamResults::parse(res.serialize());
  ASSERT_TRUE(rr.has_value());
  EXPECT_EQ(rr->stream_id, 9u);
  EXPECT_EQ(rr->emitted_frames, res.emitted_frames);

  StreamEnded ended;
  ended.stream_id = 9;
  ended.cursor = 512;
  ended.ingested = 472;
  ended.emitted = 31;
  const auto re = StreamEnded::parse(ended.serialize());
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ(re->cursor, 512u);
  EXPECT_EQ(re->ingested, 472u);

  // Hostile vector length: a results blob claiming more elements than the
  // payload carries must be rejected, not allocated.
  std::string blob = res.serialize();
  EXPECT_FALSE(StreamResults::parse(blob.substr(0, blob.size() - 3))
                   .has_value());
}

TEST(Protocol, SnapshotRoundTripsEveryField) {
  // Every wire field carries a distinct value (and every bool its
  // non-default one somewhere), so a dropped, swapped or mistyped field
  // cannot round-trip by accident.
  std::uint64_t next = 1;
  const auto v = [&next] { return next++; };
  core::InstanceStats snap;
  snap.running = true;
  snap.t_sec = 0.5 * static_cast<double>(v());
  snap.ref_queue_depth = v();
  snap.outputs = v();
  core::HealthSummary& h = snap.health;
  h.healthy_streams = static_cast<int>(v());
  h.degraded_streams = static_cast<int>(v());
  h.quarantined_streams = static_cast<int>(v());
  for (auto* f : {&h.cancels, &h.stage_restarts}) *f = v();
  h.stopped = true;
  for (int i = 0; i < 2; ++i) {
    core::StreamStats& s = snap.streams.emplace_back();
    s.id = static_cast<int>(v());
    for (auto* c : {&s.prefetch, &s.sdd, &s.snm, &s.tyolo, &s.ref}) {
      c->in = v();
      c->passed = v();
    }
    s.ingest.decode_full = s.prefetch.in;  // derived, not sent
    for (auto* f : {&s.dropped_at_ingest, &s.terminated, &s.fault.decode_errors,
                    &s.fault.retries, &s.fault.restarts, &s.fault.degraded_frames,
                    &s.fault.discarded_frames, &s.fault.cancelled_calls,
                    &s.fault.poisoned_frames}) {
      *f = v();
    }
    for (auto* d : {&s.sdd_queue_depth, &s.snm_queue_depth, &s.tyolo_queue_depth}) {
      *d = v();
    }
    s.ingest_fps = 0.25 * static_cast<double>(v());
    s.ingest.compression_ratio = 1.5 * static_cast<double>(v());
    s.ingest_done = i == 0;
    s.fault.quarantined = i == 1;
  }

  const auto instance_fields = [](const core::InstanceStats& x) {
    const core::HealthSummary& hs = x.health;
    return std::tuple(x.running, x.t_sec, x.ref_queue_depth, x.outputs,
                      x.streams.size(), hs.healthy_streams, hs.degraded_streams,
                      hs.quarantined_streams, hs.cancels, hs.stage_restarts,
                      hs.stopped);
  };
  const auto stream_fields = [](const core::StreamStats& x) {
    const core::IngestStats& in = x.ingest;
    const core::FaultStats& f = x.fault;
    return std::tuple(
        x.id, x.prefetch.in, x.prefetch.passed, x.sdd.in, x.sdd.passed, x.snm.in,
        x.snm.passed, x.tyolo.in, x.tyolo.passed, x.ref.in, x.ref.passed,
        x.dropped_at_ingest, x.terminated, x.ingest_done, x.sdd_queue_depth,
        x.snm_queue_depth, x.tyolo_queue_depth, x.ingest_fps, in.decode_full,
        in.compression_ratio, f.decode_errors, f.retries, f.restarts,
        f.degraded_frames, f.discarded_frames, f.cancelled_calls, f.poisoned_frames,
        f.quarantined);
  };
  const std::string wire = serialize_snapshot(snap);
  const auto got = parse_snapshot(wire);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(instance_fields(*got), instance_fields(snap));
  ASSERT_EQ(got->streams.size(), snap.streams.size());
  for (std::size_t i = 0; i < snap.streams.size(); ++i) {
    EXPECT_EQ(stream_fields(got->streams[i]), stream_fields(snap.streams[i]))
        << "stream " << i;
  }

  // Every truncated prefix is rejected, never half-parsed.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(parse_snapshot(wire.substr(0, len)).has_value()) << "prefix " << len;
  }
}

}  // namespace
}  // namespace ffsva::node
