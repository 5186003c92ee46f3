// Tests for the continuous half of src/obs/: the virtual-time
// TimeSeriesCollector, the SloMonitor burn-rate state machine (including a
// brute-force property test and the no-flap hysteresis guarantee), the
// incident FlightRecorder, and the Prometheus exposition writer + HTTP
// endpoint. Also the regression test for the tracer ring-drop metrics.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/slo_monitor.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace cachegen {
namespace {

using obs::AlertLevel;
using obs::AlertRecord;
using obs::FlightRecorder;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::SloMonitor;
using obs::TimeSeriesCollector;
using obs::TraceClock;
using obs::Tracer;
using obs::WindowRecord;

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

// ---- TimeSeriesCollector ----------------------------------------------------

TEST(TimeSeries, WindowsCloseOnVirtualBoundaries) {
  auto& reqs = MetricsRegistry::Instance().GetCounter("test.ts.a.requests");
  TimeSeriesCollector::Options o;
  o.period_s = 1.0;
  o.include = {"test.ts.a."};
  TimeSeriesCollector col(o);

  col.Start(0.0);
  reqs.Add(2);
  col.AdvanceTo(0.5);  // inside the first window: nothing closes
  EXPECT_TRUE(col.windows().empty());

  col.AdvanceTo(1.0);  // closes [0,1)
  ASSERT_EQ(col.windows().size(), 1u);
  EXPECT_EQ(col.windows()[0].index, 0u);
  EXPECT_DOUBLE_EQ(col.windows()[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(col.windows()[0].end_s, 1.0);
  EXPECT_EQ(col.windows()[0].counters.at("test.ts.a.requests"), 2u);

  // Record-after-advance: a completion at t=1.0 is metered after
  // AdvanceTo(1.0), so it lands in the window CONTAINING 1.0.
  reqs.Add(3);
  col.AdvanceTo(3.0);  // closes [1,2) and [2,3)
  ASSERT_EQ(col.windows().size(), 3u);
  EXPECT_EQ(col.windows()[1].counters.at("test.ts.a.requests"), 3u);
  EXPECT_EQ(col.windows()[2].counters.at("test.ts.a.requests"), 0u);

  // The collector baselines at Start: absolute counter values never leak in.
  col.Start(10.0);
  col.AdvanceTo(11.0);
  ASSERT_EQ(col.windows().size(), 1u);
  EXPECT_EQ(col.windows()[0].counters.at("test.ts.a.requests"), 0u);
}

TEST(TimeSeries, FinishFlushesTrailingActivityEvenOnABoundary) {
  auto& reqs = MetricsRegistry::Instance().GetCounter("test.ts.b.requests");
  TimeSeriesCollector::Options o;
  o.period_s = 1.0;
  o.include = {"test.ts.b."};
  TimeSeriesCollector col(o);

  col.Start(0.0);
  reqs.Add(1);
  col.AdvanceTo(1.0);  // closes [0,1)
  reqs.Add(4);         // the final completion, metered exactly at t=1.0
  col.Finish(1.0);     // must flush a (zero-length) trailing window
  ASSERT_EQ(col.windows().size(), 2u);
  EXPECT_EQ(col.windows()[0].counters.at("test.ts.b.requests"), 1u);
  EXPECT_EQ(col.windows()[1].counters.at("test.ts.b.requests"), 4u);
  EXPECT_DOUBLE_EQ(col.windows()[1].start_s, 1.0);
  EXPECT_DOUBLE_EQ(col.windows()[1].end_s, 1.0);
  EXPECT_FALSE(col.started());

  // Mid-window Finish closes the partial window.
  col.Start(0.0);
  reqs.Add(2);
  col.Finish(0.25);
  ASSERT_EQ(col.windows().size(), 1u);
  EXPECT_DOUBLE_EQ(col.windows()[0].end_s, 0.25);
  EXPECT_EQ(col.windows()[0].counters.at("test.ts.b.requests"), 2u);
}

TEST(TimeSeries, HistogramWindowsAreBucketDeltas) {
  auto& lat = MetricsRegistry::Instance().GetHistogram("test.ts.c.lat_us");
  TimeSeriesCollector::Options o;
  o.period_s = 1.0;
  o.include = {"test.ts.c."};
  TimeSeriesCollector col(o);

  col.Start(0.0);
  lat.Record(10);
  lat.Record(12);
  col.AdvanceTo(1.0);
  lat.Record(100000);
  col.AdvanceTo(2.0);

  ASSERT_EQ(col.windows().size(), 2u);
  const HistogramSnapshot& w0 = col.windows()[0].histograms.at("test.ts.c.lat_us");
  const HistogramSnapshot& w1 = col.windows()[1].histograms.at("test.ts.c.lat_us");
  EXPECT_EQ(w0.count, 2u);
  EXPECT_EQ(w0.sum, 22u);
  EXPECT_EQ(w1.count, 1u);
  EXPECT_EQ(w1.sum, 100000u);
  // Quantiles work on the windowed delta: w1's p50 sits in 100000's bucket,
  // unpolluted by w0's small samples.
  EXPECT_GT(w1.Quantile(0.5), 5e4);
  EXPECT_LT(w0.Quantile(0.99), 100.0);
}

TEST(TimeSeries, RingBoundDropsOldestWindows) {
  TimeSeriesCollector::Options o;
  o.period_s = 1.0;
  o.max_windows = 2;
  o.include = {"test.ts.none."};
  TimeSeriesCollector col(o);
  col.Start(0.0);
  col.AdvanceTo(5.0);  // five closed windows into a ring of two
  EXPECT_EQ(col.windows().size(), 2u);
  EXPECT_EQ(col.dropped_windows(), 3u);
  EXPECT_EQ(col.windows().front().index, 3u);
  EXPECT_EQ(col.windows().back().index, 4u);
}

TEST(TimeSeries, ExternalSeriesWindowLikeCounters) {
  TimeSeriesCollector::Options o;
  o.period_s = 1.0;
  o.include = {"test.ts.none."};
  TimeSeriesCollector col(o);
  col.Start(0.0);
  col.BumpExternal("node0.requests", 2);
  col.BumpExternal("node0.requests");
  col.AdvanceTo(1.0);
  col.BumpExternal("node1.requests", 5);
  col.AdvanceTo(2.0);
  ASSERT_EQ(col.windows().size(), 2u);
  EXPECT_EQ(col.windows()[0].counters.at("node0.requests"), 3u);
  EXPECT_EQ(col.windows()[0].counters.count("node1.requests"), 0u);
  EXPECT_EQ(col.windows()[1].counters.at("node0.requests"), 0u);
  EXPECT_EQ(col.windows()[1].counters.at("node1.requests"), 5u);
}

TEST(TimeSeries, WindowCallbackSeesEveryWindowInOrder) {
  TimeSeriesCollector::Options o;
  o.period_s = 0.5;
  o.include = {"test.ts.none."};
  TimeSeriesCollector col(o);
  std::vector<uint64_t> seen;
  col.set_on_window([&](const WindowRecord& w) { seen.push_back(w.index); });
  col.Start(0.0);
  col.AdvanceTo(2.0);
  col.Finish(2.1);
  ASSERT_EQ(seen.size(), 5u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(TimeSeries, JsonIsBitDeterministicAcrossIdenticalRuns) {
  auto& reqs = MetricsRegistry::Instance().GetCounter("test.ts.d.requests");
  auto& lat = MetricsRegistry::Instance().GetHistogram("test.ts.d.lat_us");
  const auto run = [&] {
    TimeSeriesCollector::Options o;
    o.period_s = 0.5;
    o.include = {"test.ts.d."};
    TimeSeriesCollector col(o);
    col.Start(0.0);
    for (int i = 0; i < 10; ++i) {
      reqs.Add(1);
      lat.Record(1000 + 77 * static_cast<uint64_t>(i));
      col.AdvanceTo(0.3 * (i + 1));
    }
    col.Finish(3.1);
    obs::JsonWriter w;
    w.BeginObject();
    col.ToJson(w);
    w.EndObject();
    return w.str();
  };
  const std::string a = run();
  const std::string b = run();  // different ABSOLUTE counter values, same deltas
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"cachegen-timeseries-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"rates\""), std::string::npos);
}

// ---- SloMonitor -------------------------------------------------------------

WindowRecord MakeWin(uint64_t index, double period_s, uint64_t violations,
                     uint64_t requests,
                     const HistogramSnapshot* ttft = nullptr) {
  WindowRecord w;
  w.index = index;
  w.start_s = index * period_s;
  w.end_s = (index + 1) * period_s;
  w.counters["cluster.slo_violations"] = violations;
  w.counters["cluster.requests"] = requests;
  if (ttft) w.histograms["cluster.ttft_us"] = *ttft;
  return w;
}

// Independent re-derivation of the documented semantics (header comment),
// kept deliberately naive: full history vectors, no deques, no caching.
struct RefMonitor {
  SloMonitor::Options o;
  std::vector<std::pair<uint64_t, uint64_t>> hist;  // (violations, requests)
  int level = 0;
  size_t calm = 0;
  std::vector<std::pair<int, int>> transitions;

  explicit RefMonitor(SloMonitor::Options opts) : o(opts) {}

  double Burn(size_t n) const {
    // The monitor's history is bounded by slow_windows, so any view is over
    // at most the last slow_windows entries.
    n = std::min(n, o.slow_windows);
    const size_t take = std::min(n, hist.size());
    uint64_t v = 0, r = 0;
    for (size_t i = hist.size() - take; i < hist.size(); ++i) {
      v += hist[i].first;
      r += hist[i].second;
    }
    if (r == 0) return 0.0;
    return (static_cast<double>(v) / r) / o.error_budget;
  }

  void OnWindow(uint64_t violations, uint64_t requests) {
    hist.emplace_back(violations, requests);
    const double fast = Burn(o.fast_windows);
    const double slow = Burn(o.slow_windows);
    int desired = 0;
    if (fast >= o.page_burn && slow >= o.page_burn) {
      desired = 2;
    } else if (fast >= o.warn_burn && slow >= o.warn_burn) {
      desired = 1;
    }
    if (desired > level) {
      transitions.emplace_back(level, desired);
      level = desired;
      calm = 0;
    } else if (desired == level) {
      calm = 0;
    } else if (++calm >= o.hold_windows) {
      transitions.emplace_back(level, desired);
      level = desired;
      calm = 0;
    }
  }
};

TEST(SloMonitor, MatchesBruteForceRecomputationOnRandomTraffic) {
  const SloMonitor::Options configs[] = {
      [] { SloMonitor::Options o; o.fast_windows = 3; o.slow_windows = 8;
           o.hold_windows = 2; o.error_budget = 0.1; o.warn_burn = 1.0;
           o.page_burn = 3.0; return o; }(),
      [] { SloMonitor::Options o; o.fast_windows = 1; o.slow_windows = 1;
           o.hold_windows = 1; o.error_budget = 0.05; o.warn_burn = 2.0;
           o.page_burn = 4.0; return o; }(),
      [] { SloMonitor::Options o; o.fast_windows = 4; o.slow_windows = 16;
           o.hold_windows = 3; o.error_budget = 0.01; o.warn_burn = 2.0;
           o.page_burn = 10.0; return o; }(),
  };
  Rng rng(0x510B);
  for (const SloMonitor::Options& o : configs) {
    SloMonitor mon(o);
    RefMonitor ref(o);
    for (uint64_t i = 0; i < 300; ++i) {
      // Phased traffic: calm, bursty, and idle stretches (requests == 0).
      const uint64_t phase = (i / 25) % 3;
      const uint64_t requests =
          phase == 2 && rng.NextU64() % 4 == 0 ? 0 : 1 + rng.NextU64() % 20;
      uint64_t violations = 0;
      if (requests > 0) {
        const uint64_t ceiling = phase == 1 ? requests : requests / 4 + 1;
        violations = rng.NextU64() % (ceiling + 1);
      }
      mon.OnWindow(MakeWin(i, 1.0, violations, requests));
      ref.OnWindow(violations, requests);
      ASSERT_EQ(static_cast<int>(mon.level()), ref.level) << "window " << i;
      ASSERT_NEAR(mon.fast_burn(), ref.Burn(o.fast_windows), 1e-12);
      ASSERT_NEAR(mon.slow_burn(), ref.Burn(o.slow_windows), 1e-12);
    }
    ASSERT_EQ(mon.alerts().size(), ref.transitions.size());
    for (size_t i = 0; i < ref.transitions.size(); ++i) {
      EXPECT_EQ(static_cast<int>(mon.alerts()[i].from),
                ref.transitions[i].first);
      EXPECT_EQ(static_cast<int>(mon.alerts()[i].to),
                ref.transitions[i].second);
    }
  }
}

TEST(SloMonitor, HysteresisNeverFlapsOnBoundaryOscillation) {
  SloMonitor::Options o;
  o.fast_windows = 1;
  o.slow_windows = 4;
  o.hold_windows = 3;
  o.error_budget = 0.1;
  o.warn_burn = 1.0;
  o.page_burn = 100.0;  // out of reach
  SloMonitor mon(o);
  // Violations oscillate 4,0,4,0,... at 10 requests/window: the fast burn
  // alternates 4.0 / 0.0 across the WARN threshold every single window, the
  // slow burn holds at >= 1. The desired level therefore flips WARN/OK each
  // window — but hold_windows=3 of calm never accrue, so after the initial
  // upgrade the alert must never move again.
  for (uint64_t i = 0; i < 50; ++i) {
    mon.OnWindow(MakeWin(i, 1.0, i % 2 == 0 ? 4 : 0, 10));
  }
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].from, AlertLevel::kOk);
  EXPECT_EQ(mon.alerts()[0].to, AlertLevel::kWarn);
  EXPECT_EQ(mon.level(), AlertLevel::kWarn);

  // Sustained calm then does downgrade — exactly once, after hold_windows.
  for (uint64_t i = 50; i < 60; ++i) mon.OnWindow(MakeWin(i, 1.0, 0, 10));
  ASSERT_EQ(mon.alerts().size(), 2u);
  EXPECT_EQ(mon.alerts()[1].to, AlertLevel::kOk);
  // Window 49 (the oscillation's trailing quiet window) was already calm #1,
  // so the third consecutive calm window is 51.
  EXPECT_EQ(mon.alerts()[1].window_index, 51u);
}

TEST(SloMonitor, TtftP95BreachesWarnAndEmitsAlertInstant) {
  TracerScope scope;
  SloMonitor::Options o;
  o.fast_windows = 2;
  o.slow_windows = 4;
  o.ttft_slo_s = 1.0;
  o.error_budget = 0.1;
  SloMonitor mon(o);

  Histogram slow_ttft;
  for (int i = 0; i < 20; ++i) slow_ttft.Record(2'000'000);  // p95 ~ 2 s
  const HistogramSnapshot snap = slow_ttft.Snapshot();
  mon.OnWindow(MakeWin(0, 1.0, 0, 20, &snap));  // zero burn, TTFT breach
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].to, AlertLevel::kWarn);
  EXPECT_GT(mon.alerts()[0].fast_p95_ttft_s, 1.5);
  EXPECT_LT(mon.alerts()[0].fast_p95_ttft_s, 2.5);

  // The transition also landed as a cluster.alert instant on virtual track 0.
  bool found = false;
  for (const obs::TraceEvent& ev : Tracer::Instance().Snapshot()) {
    if (ev.cat != nullptr && std::string(ev.cat) == "cluster.alert") {
      EXPECT_EQ(ev.clock, TraceClock::kVirtual);
      EXPECT_EQ(ev.track, 0u);
      EXPECT_EQ(std::string(ev.name), "WARN");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SloMonitor, AlertJsonCarriesThresholdsAndTransitions) {
  SloMonitor::Options o;
  o.fast_windows = 1;
  o.slow_windows = 1;
  o.error_budget = 0.1;
  o.warn_burn = 1.0;
  o.page_burn = 2.0;
  SloMonitor mon(o);
  mon.OnWindow(MakeWin(0, 1.0, 5, 10));  // burn 5.0: straight to PAGE
  obs::JsonWriter w;
  w.BeginObject();
  mon.ToJson(w);
  w.EndObject();
  EXPECT_NE(w.str().find("\"schema\": \"cachegen-alerts-v1\""),
            std::string::npos);
  EXPECT_NE(w.str().find("\"final_level\": \"PAGE\""), std::string::npos);
  EXPECT_NE(w.str().find("\"from\": \"OK\""), std::string::npos);
  EXPECT_NE(w.str().find("\"to\": \"PAGE\""), std::string::npos);
}

// ---- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorderTest, CapturesCompleteAllowedTracksAroundTheWindow) {
  TracerScope scope;
  // Track 5: overlaps the window at t=10 — its complete track must survive,
  // including the early event at t=1.
  CG_TRACE_VSPAN("cluster", "early_span", 5, 1.0, 1.5);
  CG_TRACE_VSPAN("cluster", "in_window_span", 5, 9.5, 10.5);
  // Track 6: entirely outside the window.
  CG_TRACE_VSPAN("cluster", "far_away_span", 6, 100.0, 101.0);
  // Track 7: in the window but denied by the predicate (still in flight).
  CG_TRACE_VSPAN("cluster", "denied_span", 7, 9.8, 10.2);
  // Track 0: one alert inside the window, one outside (window-filtered).
  CG_TRACE_VINSTANT("cluster.alert", "PAGE", 0, 10.0);
  CG_TRACE_VINSTANT("cluster.alert", "WARN", 0, 50.0);
  // Wall-clock events never enter an incident.
  CG_TRACE_INSTANT("cluster", "wall_marker");

  FlightRecorder::Options o;
  o.before_s = 2.0;
  o.after_s = 1.0;
  FlightRecorder rec(o);
  const auto allowed = [](uint64_t track) { return track != 7; };
  ASSERT_TRUE(rec.Capture(5, 10.0, "page", allowed));
  ASSERT_EQ(rec.incidents().size(), 1u);
  const FlightRecorder::Incident& inc = rec.incidents()[0];
  EXPECT_EQ(inc.offending_track, 5u);
  EXPECT_DOUBLE_EQ(inc.window_start_s, 8.0);
  EXPECT_DOUBLE_EQ(inc.window_end_s, 11.0);
  EXPECT_EQ(inc.reason, "page");
  EXPECT_EQ(inc.num_events, 3u);  // both track-5 spans + in-window alert

  const std::string& json = inc.trace_json;
  EXPECT_NE(json.find("early_span"), std::string::npos);
  EXPECT_NE(json.find("in_window_span"), std::string::npos);
  EXPECT_NE(json.find("\"PAGE\""), std::string::npos);
  EXPECT_EQ(json.find("far_away_span"), std::string::npos);
  EXPECT_EQ(json.find("denied_span"), std::string::npos);
  EXPECT_EQ(json.find("wall_marker"), std::string::npos);
  EXPECT_EQ(json.find("\"WARN\""), std::string::npos);

  // Same tracer state, same trigger: byte-identical artifact. The second
  // capture may reallocate incidents(), so `inc` is not used past it.
  ASSERT_TRUE(rec.Capture(5, 10.0, "page", allowed));
  EXPECT_EQ(rec.incidents()[1].trace_json, rec.incidents()[0].trace_json);
}

TEST(FlightRecorderTest, IncidentCapIsEnforcedAndCounted) {
  TracerScope scope;
  CG_TRACE_VSPAN("cluster", "lone_span", 3, 1.0, 2.0);
  FlightRecorder::Options o;
  o.max_incidents = 2;
  FlightRecorder rec(o);
  EXPECT_TRUE(rec.Capture(3, 1.5, "a", nullptr));
  EXPECT_TRUE(rec.Capture(3, 1.5, "b", nullptr));
  EXPECT_FALSE(rec.Capture(3, 1.5, "c", nullptr));
  EXPECT_FALSE(rec.Capture(3, 1.5, "d", nullptr));
  EXPECT_EQ(rec.incidents().size(), 2u);
  EXPECT_EQ(rec.dropped_triggers(), 2u);
}

// ---- tracer ring-drop metrics (regression) ----------------------------------

TEST(TracerMetrics, RingWrapBumpsDropCounterAndHighWaterGauge) {
  TracerScope scope;
  auto& dropped =
      MetricsRegistry::Instance().GetCounter("obs.trace.dropped_events");
  auto& highwater =
      MetricsRegistry::Instance().GetGauge("obs.trace.ring_highwater_events");
  const uint64_t before = dropped.Value();
  Tracer::Instance().SetRingCapacity(64);
  // A fresh thread gets the small ring (existing threads keep theirs).
  std::thread([] {
    for (int i = 0; i < 100; ++i) obs::TraceInstant("cluster", "wrap_metric");
  }).join();
  Tracer::Instance().SetRingCapacity(16384);
  EXPECT_EQ(dropped.Value() - before, 36u);
  // The high-water gauge saw the ring fill to capacity before wrapping.
  EXPECT_GE(highwater.Value(), 64);
}

// ---- Prometheus exposition --------------------------------------------------

TEST(Exposition, SanitizesNamesIntoTheCachegenNamespace) {
  EXPECT_EQ(obs::PrometheusName("cluster.ttft_us"),
            "cachegen_cluster_ttft_us");
  EXPECT_EQ(obs::PrometheusName("fabric.node0.requests"),
            "cachegen_fabric_node0_requests");
  EXPECT_EQ(obs::PrometheusName("a-b c"), "cachegen_a_b_c");
}

TEST(Exposition, RendersCountersGaugesAndCumulativeHistograms) {
  MetricsRegistry::Snapshot snap;
  snap.counters["test.exp.requests"] = 5;
  snap.gauges["test.exp.depth"] = -3;
  Histogram h;
  h.Record(3);
  h.Record(3);
  h.Record(100);
  snap.histograms["test.exp.lat_us"] = h.Snapshot();

  obs::ExpositionOptions o;
  o.catalog_only = false;
  const std::string text = obs::ToPrometheusText(snap, o);

  EXPECT_NE(text.find("# TYPE cachegen_test_exp_requests_total counter\n"
                      "cachegen_test_exp_requests_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cachegen_test_exp_depth gauge\n"
                      "cachegen_test_exp_depth -3\n"),
            std::string::npos);
  // Value 3 lives in bucket [3,4) => le="3" (exact, integer histogram);
  // 100 lives in [96,104) => le="103"; cumulative counts, then +Inf.
  EXPECT_NE(text.find("cachegen_test_exp_lat_us_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("cachegen_test_exp_lat_us_bucket{le=\"103\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("cachegen_test_exp_lat_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("cachegen_test_exp_lat_us_sum 106\n"),
            std::string::npos);
  EXPECT_NE(text.find("cachegen_test_exp_lat_us_count 3\n"),
            std::string::npos);
  // Empty buckets are not emitted.
  EXPECT_EQ(text.find("le=\"4\""), std::string::npos);
}

TEST(Exposition, CatalogOnlyAndExcludeFilter) {
  MetricsRegistry::Snapshot snap;
  snap.counters["test.exp.rogue"] = 1;       // not in the names.h catalog
  snap.counters["cluster.requests"] = 7;     // cataloged
  snap.counters["cluster.misses"] = 2;       // cataloged, excluded below

  obs::ExpositionOptions o;  // catalog_only by default
  o.exclude = {"cluster.misses"};
  const std::string text = obs::ToPrometheusText(snap, o);
  EXPECT_NE(text.find("cachegen_cluster_requests_total 7"), std::string::npos);
  EXPECT_EQ(text.find("rogue"), std::string::npos);
  EXPECT_EQ(text.find("misses"), std::string::npos);
}

// ---- MetricsHttpServer ------------------------------------------------------

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) resp.append(buf, n);
  ::close(fd);
  return resp;
}

TEST(MetricsHttpServerTest, ServesMetricsHealthzAnd404) {
  // Make sure at least one cataloged metric exists for /metrics to render.
  MetricsRegistry::Instance().GetCounter("cluster.requests").Add(0);

  obs::MetricsHttpServer server;
  ASSERT_TRUE(server.Start(0));  // ephemeral port
  ASSERT_NE(server.port(), 0);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE cachegen_"), std::string::npos);

  const std::string healthz = HttpGet(server.port(), "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.Stop();
  // Stop is idempotent and the port is released.
  server.Stop();
}

// ---- metrics JSON histogram buckets (export.cpp satellite) ------------------

TEST(MetricsJsonExport, HistogramsCarryCumulativeBucketArrays) {
  MetricsRegistry::Snapshot snap;
  Histogram h;
  h.Record(3);
  h.Record(3);
  h.Record(100);
  snap.histograms["test.export.lat_us"] = h.Snapshot();

  obs::JsonWriter w;
  w.BeginObject();
  obs::AppendMetricsJson(w, snap);
  w.EndObject();
  const std::string& json = w.str();
  // Existing summary fields stay...
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  // ...and the full cumulative (le, count) pairs ride along, +Inf last.
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  const size_t b3 = json.find("3,");      // le=3 upper bound
  EXPECT_NE(b3, std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
  EXPECT_LT(json.find("\"buckets\""), json.find("\"+Inf\""));
}

}  // namespace
}  // namespace cachegen
