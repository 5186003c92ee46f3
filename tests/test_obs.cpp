#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {
namespace {

using obs::ExactQuantile;
using obs::HistBucketIndex;
using obs::HistBucketLower;
using obs::HistBucketUpper;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::TraceClock;
using obs::TraceEvent;
using obs::Tracer;

// The tracer is process-global; every test that records restores this state.
struct TracerScope {
  TracerScope() {
    Tracer::Instance().Clear();
    Tracer::Instance().SetEnabled(true);
  }
  ~TracerScope() {
    Tracer::Instance().SetEnabled(false);
    Tracer::Instance().Clear();
  }
};

// ---- histogram bucket grid --------------------------------------------------

TEST(HistBuckets, SmallValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < obs::kHistSubBuckets; ++v) {
    const size_t b = HistBucketIndex(v);
    EXPECT_EQ(HistBucketLower(b), v);
    EXPECT_EQ(HistBucketUpper(b), v + 1);
  }
}

TEST(HistBuckets, EveryValueFallsInsideItsBucket) {
  Rng rng(0x0B51);
  std::vector<uint64_t> probes = {0, 1, 7, 8, 9, 15, 16, 17, 100, 1000,
                                  ~uint64_t{0}, ~uint64_t{0} - 1};
  for (int i = 0; i < 2000; ++i) probes.push_back(rng.NextU64());
  for (uint64_t v : probes) {
    const size_t b = HistBucketIndex(v);
    ASSERT_LT(b, obs::kHistNumBuckets);
    EXPECT_LE(HistBucketLower(b), v) << "v=" << v;
    if (HistBucketUpper(b) != 0) {  // upper==0 marks the saturated top bucket
      EXPECT_GT(HistBucketUpper(b), v) << "v=" << v;
    }
  }
}

TEST(HistBuckets, BucketsAreAtMost12Point5PercentWide) {
  for (uint64_t v : {uint64_t{9}, uint64_t{100}, uint64_t{12345},
                     uint64_t{1} << 40, (uint64_t{1} << 40) + 12345}) {
    const size_t b = HistBucketIndex(v);
    const double lo = static_cast<double>(HistBucketLower(b));
    const double hi = static_cast<double>(HistBucketUpper(b));
    EXPECT_LE(hi - lo, lo * 0.125 + 1e-9) << "v=" << v;
  }
}

// ---- quantile estimates vs exact quantiles ----------------------------------

// Records `samples` into a histogram and checks the bucketed p50/p95/p99
// against the exact nearest-rank quantiles of the same samples: within 10%
// relative (bucket midpoints are within ~6.7%) plus a small absolute slack
// for the unit buckets.
void CheckQuantiles(const std::vector<uint64_t>& samples, const char* what) {
  Histogram h;
  for (uint64_t v : samples) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, samples.size());
  for (double q : {0.50, 0.95, 0.99}) {
    const double exact = ExactQuantile(samples, q);
    const double est = snap.Quantile(q);
    EXPECT_NEAR(est, exact, exact * 0.10 + 1.0)
        << what << " q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(HistQuantiles, Uniform) {
  Rng rng(0xA11CE);
  std::vector<uint64_t> s;
  for (int i = 0; i < 50000; ++i) s.push_back(rng.NextBelow(1'000'000));
  CheckQuantiles(s, "uniform[0,1e6)");
}

TEST(HistQuantiles, LogNormal) {
  Rng rng(0xB0B);
  std::vector<uint64_t> s;
  for (int i = 0; i < 50000; ++i) {
    s.push_back(static_cast<uint64_t>(rng.LogNormal(8.0, 2.0)));
  }
  CheckQuantiles(s, "lognormal(8,2)");
}

TEST(HistQuantiles, AdversarialSingleBucket) {
  // Every sample in one bucket: the estimate can only be that bucket's
  // midpoint, which must still sit within the width bound of the true value.
  CheckQuantiles(std::vector<uint64_t>(10000, 123456), "constant");
  CheckQuantiles(std::vector<uint64_t>(10000, 3), "constant-unit-bucket");
}

TEST(HistQuantiles, AdversarialBimodal) {
  // Two far-apart spikes straddling the p95: quantiles must snap to the
  // correct mode, not interpolate into the empty valley.
  std::vector<uint64_t> s;
  for (int i = 0; i < 9400; ++i) s.push_back(100);
  for (int i = 0; i < 600; ++i) s.push_back(1'000'000);
  Rng rng(0x5EED);
  for (size_t i = s.size(); i > 1; --i) {
    std::swap(s[i - 1], s[rng.NextBelow(i)]);
  }
  CheckQuantiles(s, "bimodal");
  Histogram h;
  for (uint64_t v : s) h.Record(v);
  // p50 must be in the low mode, p99 in the high mode — nowhere between.
  EXPECT_LT(h.Snapshot().Quantile(0.50), 200.0);
  EXPECT_GT(h.Snapshot().Quantile(0.99), 900'000.0);
}

TEST(HistQuantiles, EmptyAndMean) {
  Histogram h;
  EXPECT_EQ(h.Snapshot().Quantile(0.5), 0.0);
  EXPECT_EQ(h.Snapshot().Mean(), 0.0);
  h.Record(10);
  h.Record(20);
  EXPECT_DOUBLE_EQ(h.Snapshot().Mean(), 15.0);
  EXPECT_EQ(h.Snapshot().sum, 30u);
}

// ---- concurrent recording ---------------------------------------------------

TEST(MetricsConcurrency, CountersAndHistogramsMergeExactly) {
  // Run under TSan in CI: concurrent Add/Record against sharded atomics plus
  // a racing SnapshotAll must be clean, and the final merge exact.
  auto& c = MetricsRegistry::Instance().GetCounter("test.obs.concurrent_c");
  auto& h = MetricsRegistry::Instance().GetHistogram("test.obs.concurrent_h");
  c.Reset();
  h.Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c, &h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Add(1);
        h.Record(static_cast<uint64_t>(t) * kPerThread + i);
      }
    });
  }
  // Concurrent reader: snapshots must be wait-free and tear-free (counts
  // only ever grow).
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const uint64_t now = c.Value();
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (uint64_t v = 0; v < kThreads * kPerThread; ++v) expected_sum += v;
  EXPECT_EQ(snap.sum, expected_sum);
}

// ---- registry ---------------------------------------------------------------

TEST(Registry, SameNameReturnsSameMetric) {
  auto& a = MetricsRegistry::Instance().GetCounter("test.obs.identity");
  auto& b = MetricsRegistry::Instance().GetCounter("test.obs.identity");
  EXPECT_EQ(&a, &b);
  auto& g1 = MetricsRegistry::Instance().GetGauge("test.obs.identity");
  auto& g2 = MetricsRegistry::Instance().GetGauge("test.obs.identity");
  EXPECT_EQ(&g1, &g2);  // gauges are a separate namespace from counters
}

TEST(Registry, GaugeSetAddAndResetAll) {
  auto& g = MetricsRegistry::Instance().GetGauge("test.obs.gauge");
  g.Set(42);
  g.Add(-10);
  EXPECT_EQ(g.Value(), 32);
  auto& c = MetricsRegistry::Instance().GetCounter("test.obs.reset_c");
  c.Add(7);
  MetricsRegistry::Instance().ResetAll();
  EXPECT_EQ(g.Value(), 0);   // references stay valid, values zero
  EXPECT_EQ(c.Value(), 0u);
  const auto snap = MetricsRegistry::Instance().SnapshotAll();
  ASSERT_TRUE(snap.gauges.count("test.obs.gauge"));
  EXPECT_EQ(snap.gauges.at("test.obs.gauge"), 0);
}

TEST(Registry, MacrosRecordThroughCachedStatics) {
  MetricsRegistry::Instance().GetCounter("test.obs.macro").Reset();
  for (int i = 0; i < 3; ++i) CG_METRIC_COUNT("test.obs.macro", 2);
  EXPECT_EQ(MetricsRegistry::Instance().GetCounter("test.obs.macro").Value(),
            6u);
  CG_METRIC_GAUGE_SET("test.obs.macro_g", 5);
  CG_METRIC_GAUGE_ADD("test.obs.macro_g", 3);
  EXPECT_EQ(MetricsRegistry::Instance().GetGauge("test.obs.macro_g").Value(),
            8);
}

// ---- tracer -----------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer::Instance().Clear();
  Tracer::Instance().SetEnabled(false);
  obs::TraceInstant("test", "never");
  obs::TraceVirtualSpan("test", "never", 1, 0.0, 1.0);
  { obs::SpanGuard g("test", "never"); }
  EXPECT_TRUE(Tracer::Instance().Snapshot().empty());
}

TEST(TracerTest, RecordsSpansInstantsAndVirtualEvents) {
  TracerScope scope;
  obs::TraceInstant("test", "mark", "k", 7.0);
  obs::TraceVirtualSpan("test", "vspan", /*track=*/42, 1.5, 2.5, "bytes", 10.0);
  { obs::SpanGuard g("test", "scoped"); }
  const auto events = Tracer::Instance().Snapshot();
  ASSERT_EQ(events.size(), 3u);

  const auto find = [&](const char* name) -> const TraceEvent& {
    const auto it = std::find_if(
        events.begin(), events.end(),
        [&](const TraceEvent& e) { return std::string(e.name) == name; });
    if (it == events.end()) {
      ADD_FAILURE() << "event not recorded: " << name;
      static const TraceEvent kEmpty{};
      return kEmpty;
    }
    return *it;
  };
  const TraceEvent mark = find("mark");
  EXPECT_EQ(mark.phase, 'i');
  EXPECT_EQ(mark.clock, TraceClock::kWall);
  EXPECT_DOUBLE_EQ(mark.arg_value, 7.0);
  const TraceEvent vspan = find("vspan");
  EXPECT_EQ(vspan.phase, 'X');
  EXPECT_EQ(vspan.clock, TraceClock::kVirtual);
  EXPECT_EQ(vspan.track, 42u);
  EXPECT_EQ(vspan.ts_us, 1'500'000u);
  EXPECT_EQ(vspan.dur_us, 1'000'000u);
  const TraceEvent scoped = find("scoped");
  EXPECT_EQ(scoped.phase, 'X');
  EXPECT_EQ(scoped.clock, TraceClock::kWall);
}

TEST(TracerTest, RingWrapsDropOldestAndCount) {
  TracerScope scope;
  Tracer::Instance().SetRingCapacity(64);
  const uint64_t dropped_before = Tracer::Instance().DroppedEvents();
  // A fresh thread gets the small ring (existing threads keep theirs).
  std::thread([] {
    for (int i = 0; i < 100; ++i) obs::TraceInstant("test", "wrap");
  }).join();
  Tracer::Instance().SetRingCapacity(16384);
  const auto events = Tracer::Instance().Snapshot();
  EXPECT_EQ(events.size(), 64u);
  EXPECT_EQ(Tracer::Instance().DroppedEvents() - dropped_before, 36u);
  // Drop-oldest: the survivors are the LAST 64 recorded, in ts order.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
  Tracer::Instance().Clear();
  EXPECT_TRUE(Tracer::Instance().Snapshot().empty());
}

TEST(TracerTest, ScopedRequestIdNests) {
  EXPECT_EQ(obs::ScopedRequestId::Current(), 0u);
  {
    obs::ScopedRequestId outer(5);
    EXPECT_EQ(obs::ScopedRequestId::Current(), 5u);
    {
      obs::ScopedRequestId inner(9);
      EXPECT_EQ(obs::ScopedRequestId::Current(), 9u);
    }
    EXPECT_EQ(obs::ScopedRequestId::Current(), 5u);
  }
  EXPECT_EQ(obs::ScopedRequestId::Current(), 0u);
}

// ---- exporters --------------------------------------------------------------

TEST(Export, ChromeTraceShapeAndSchemaVersion) {
  TracerScope scope;
  obs::TraceInstant("testcat", "wall_mark");
  obs::TraceVirtualSpan("testcat", "virt_span", /*track=*/3, 0.5, 1.0);
  const std::string json =
      obs::TraceToChromeJson(Tracer::Instance().Snapshot());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"traceSchemaVersion\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"wall_mark\""), std::string::npos);
  EXPECT_NE(json.find("\"virt_span\""), std::string::npos);
  EXPECT_NE(json.find("cachegen cluster virtual time"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(Export, MetricsJsonCarriesRegisteredMetrics) {
  auto& c = MetricsRegistry::Instance().GetCounter("test.obs.export_c");
  c.Reset();
  c.Add(3);
  auto& h = MetricsRegistry::Instance().GetHistogram("test.obs.export_h");
  h.Reset();
  h.Record(100);
  obs::JsonWriter w;
  w.BeginObject();
  obs::AppendMetricsJson(w, MetricsRegistry::Instance().SnapshotAll());
  w.EndObject();
  const std::string& json = w.str();
  EXPECT_NE(json.find("\"test.obs.export_c\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.export_h\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(JsonWriterTest, EscapesAndNestsCorrectly) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("quote\"back\\slash", "tab\there\nnewline");
  w.BeginArray("xs");
  w.Value(uint64_t{1});
  w.Value(2.5, 1);
  w.Value("s");
  w.EndArray();
  w.BeginObject("nested");
  w.Field("neg", int64_t{-4});
  w.Field("inf_is_null", std::numeric_limits<double>::infinity());
  w.EndObject();
  w.EndObject();
  const std::string& json = w.str();
  EXPECT_NE(json.find("\"quote\\\"back\\\\slash\""), std::string::npos);
  EXPECT_NE(json.find("tab\\there\\nnewline"), std::string::npos);
  EXPECT_NE(json.find("2.5"), std::string::npos);
  EXPECT_NE(json.find("\"neg\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"inf_is_null\": null"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace cachegen
