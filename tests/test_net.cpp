#include <gtest/gtest.h>

#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "net/pipeline.h"

namespace cachegen {
namespace {

TEST(BandwidthTrace, ConstantRate) {
  const auto t = BandwidthTrace::Constant(2.0);
  EXPECT_DOUBLE_EQ(t.GbpsAt(0.0), 2.0);
  EXPECT_DOUBLE_EQ(t.GbpsAt(100.0), 2.0);
  // 1 GB at 2 Gbps = 4 seconds.
  EXPECT_NEAR(t.TransferSeconds(1e9, 0.0), 4.0, 1e-9);
}

TEST(BandwidthTrace, SegmentsApply) {
  const auto t = BandwidthTrace::FromSegments({{0.0, 2.0}, {2.0, 0.2}, {4.0, 1.0}});
  EXPECT_DOUBLE_EQ(t.GbpsAt(1.9), 2.0);
  EXPECT_DOUBLE_EQ(t.GbpsAt(2.0), 0.2);
  EXPECT_DOUBLE_EQ(t.GbpsAt(3.9), 0.2);
  EXPECT_DOUBLE_EQ(t.GbpsAt(4.0), 1.0);
}

TEST(BandwidthTrace, TransferCrossesSegments) {
  // Fig. 7 setup: 2 Gbps for 2 s (0.5 GB), then 0.2 Gbps for 2 s (0.05 GB),
  // then 1 Gbps. Sending 1 GB from t=0 takes 2 + 2 + 0.45/0.125 = 7.6 s.
  const auto t = BandwidthTrace::Figure7();
  EXPECT_NEAR(t.TransferSeconds(1e9, 0.0), 7.6, 1e-6);
}

TEST(BandwidthTrace, TransferFromOffsetStart) {
  const auto t = BandwidthTrace::FromSegments({{0.0, 8.0}, {1.0, 0.8}});
  // Start at t=0.5: 0.5 s at 1 GB/s = 0.5 GB, then 0.5 GB at 0.1 GB/s = 5 s.
  EXPECT_NEAR(t.TransferSeconds(1e9, 0.5), 5.5, 1e-9);
}

TEST(BandwidthTrace, BytesInIntegrates) {
  const auto t = BandwidthTrace::FromSegments({{0.0, 8.0}, {1.0, 0.8}});
  EXPECT_NEAR(t.BytesIn(0.0, 1.0), 1e9, 1.0);
  EXPECT_NEAR(t.BytesIn(0.0, 2.0), 1.1e9, 1.0);
  EXPECT_DOUBLE_EQ(t.BytesIn(2.0, 2.0), 0.0);
}

TEST(BandwidthTrace, ZeroBytesIsInstant) {
  const auto t = BandwidthTrace::Constant(1.0);
  EXPECT_DOUBLE_EQ(t.TransferSeconds(0.0, 5.0), 0.0);
}

TEST(BandwidthTrace, RandomTraceDeterministicAndBounded) {
  const auto a = BandwidthTrace::Random(7, 0.1, 10.0, 0.5, 20.0);
  const auto b = BandwidthTrace::Random(7, 0.1, 10.0, 0.5, 20.0);
  EXPECT_EQ(a.segments().size(), b.segments().size());
  for (size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.segments()[i].gbps, b.segments()[i].gbps);
    EXPECT_GE(a.segments()[i].gbps, 0.1);
    EXPECT_LE(a.segments()[i].gbps, 10.0);
  }
  const auto c = BandwidthTrace::Random(8, 0.1, 10.0, 0.5, 20.0);
  bool any_diff = false;
  for (size_t i = 0; i < c.segments().size(); ++i) {
    any_diff |= c.segments()[i].gbps != a.segments()[i].gbps;
  }
  EXPECT_TRUE(any_diff);
}

TEST(BandwidthTrace, Validation) {
  EXPECT_THROW(BandwidthTrace::FromSegments({}), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::FromSegments({{1.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::FromSegments({{0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::Random(1, 1, 2, 0.0, 5.0), std::invalid_argument);
}

TEST(Link, SequentialTransfersAdvanceClock) {
  Link link(BandwidthTrace::Constant(8.0));  // 1 GB/s
  const TransferRecord r1 = link.Send(5e8);
  EXPECT_DOUBLE_EQ(r1.start_s, 0.0);
  EXPECT_NEAR(r1.end_s, 0.5, 1e-9);
  const TransferRecord r2 = link.Send(5e8);
  EXPECT_NEAR(r2.start_s, 0.5, 1e-9);
  EXPECT_NEAR(link.now(), 1.0, 1e-9);
}

TEST(Link, ThroughputObserved) {
  Link link(BandwidthTrace::Constant(3.0));
  const TransferRecord r = link.Send(3e9 / 8.0);  // one second's worth
  EXPECT_NEAR(r.ThroughputGbps(), 3.0, 1e-9);
  EXPECT_NEAR(r.Seconds(), 1.0, 1e-9);
}

TEST(Link, AdvanceToNeverRewinds) {
  Link link(BandwidthTrace::Constant(1.0), 2.0);
  link.AdvanceTo(5.0);
  EXPECT_DOUBLE_EQ(link.now(), 5.0);
  link.AdvanceTo(1.0);
  EXPECT_DOUBLE_EQ(link.now(), 5.0);
}

TEST(Link, SendAcrossBandwidthDrop) {
  Link link(BandwidthTrace::Figure7());
  // 0.6 GB: 0.5 GB in the first 2 s at 2 Gbps, 0.05 GB in the 0.2 Gbps dip
  // (2 s), then the last 0.05 GB at the recovered 1 Gbps in 0.4 s.
  const TransferRecord r = link.Send(6e8);
  EXPECT_NEAR(r.end_s, 4.4, 1e-6);
}

TEST(Pipeline, NoDecodeEqualsTransfer) {
  const std::vector<double> ready = {1.0, 2.0, 3.0};
  const std::vector<double> dec = {0.0, 0.0, 0.0};
  EXPECT_EQ(PipelineTimeline(ready, dec), ready);
}

TEST(Pipeline, DecodeHiddenWhenFasterThanTransfer) {
  // Decode of chunk i overlaps transfer of chunk i+1: every decode starts
  // on arrival, so only the last chunk's decode is exposed.
  const std::vector<double> ready = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> dec = {0.2, 0.2, 0.2, 0.2};
  const std::vector<double> done = PipelineTimeline(ready, dec);
  ASSERT_EQ(done.size(), 4u);
  for (size_t i = 0; i < done.size(); ++i) {
    EXPECT_DOUBLE_EQ(done[i], ready[i] + 0.2);
  }
}

TEST(Pipeline, DecodeBoundWhenSlowerThanTransfer) {
  const std::vector<double> ready = {0.1, 0.2, 0.3};
  const std::vector<double> dec = {1.0, 1.0, 1.0};
  EXPECT_NEAR(PipelineTimeline(ready, dec).back(), 0.1 + 3.0, 1e-12);
}

TEST(Pipeline, ChunkReadyTimesMonotone) {
  const std::vector<double> ready = {0.5, 0.7, 1.6};
  const std::vector<double> dec = {0.3, 0.4, 0.1};
  const std::vector<double> done = PipelineTimeline(ready, dec);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_LT(done[0], done[1]);
  EXPECT_LT(done[1], done[2]);
  // The second decode waits for the first; the third starts on arrival.
  EXPECT_NEAR(done[1], 0.8 + 0.4, 1e-12);
  EXPECT_NEAR(done[2], 1.7, 1e-12);
}

TEST(Pipeline, StartDelaysEarlyStages) {
  // A GPU busy until t=5 holds stages that arrived before then.
  const std::vector<double> ready = {1.0, 7.0};
  const std::vector<double> dec = {1.0, 1.0};
  EXPECT_EQ(PipelineTimeline(ready, dec, 5.0), (std::vector<double>{6.0, 8.0}));
}

TEST(Pipeline, MismatchThrows) {
  EXPECT_THROW(PipelineTimeline(std::vector<double>{1.0}, std::vector<double>{}),
               std::invalid_argument);
}

TEST(Pipeline, EmptyIsZero) {
  EXPECT_TRUE(PipelineTimeline({}, {}).empty());
}

}  // namespace
}  // namespace cachegen
