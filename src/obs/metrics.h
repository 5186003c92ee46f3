// MetricsRegistry: process-wide named counters, gauges, and log-bucketed
// histograms for the serving stack — the always-on half of the observability
// layer (the Tracer in obs/trace.h is the opt-in, timeline half).
//
// Hot-path cost model: instrumentation sites resolve their metric ONCE (a
// function-local static reference; registry lookup takes a mutex exactly
// once per site) and then record lock-free into relaxed atomics:
//   * Counter  — one atomic uint64.
//   * Gauge    — one atomic int64 (set/add/max semantics).
//   * Histogram — log-linear bucketing (8 sub-buckets per power of two, so a
//     bucket is at most 12.5% wide and a midpoint quantile estimate is
//     within ~6.7% of the true value) into one count, one sum and one
//     bucket array. Record() is a bit-scan plus three relaxed fetch_adds.
// No metric is sharded per thread: a serve records its cluster.*,
// streamer.*, net.* and cache-tier metrics on its one coordinator thread,
// and its decode threads record only codec metrics and pool.jobs, once per
// chunk, so few sites ever see two writers at once.
// Snapshots read the atomics without locks: one concurrent with recording
// sees each update or not (no tearing, no locks on the write path).
//
// ExactQuantile() over raw samples is the reference the bucketed
// HistogramSnapshot::Quantile() is validated against (tests/test_obs.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace cachegen::obs {

class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  // Monotone high-water update: the gauge only moves up (racing Max calls
  // settle on the largest value; mixing Max with Set/Add is the caller's
  // problem).
  void Max(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

// Log-linear bucket grid shared by Histogram and its snapshots. Values
// 0..7 get exact unit buckets; larger values land in one of 8 sub-buckets
// of their power-of-two octave.
inline constexpr int kHistSubBits = 3;
inline constexpr size_t kHistSubBuckets = 1u << kHistSubBits;  // 8
inline constexpr size_t kHistNumBuckets = 62 * kHistSubBuckets;  // covers uint64

size_t HistBucketIndex(uint64_t v);
// Inclusive lower bound / exclusive upper bound of a bucket.
uint64_t HistBucketLower(size_t index);
uint64_t HistBucketUpper(size_t index);

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;  // kHistNumBuckets counts

  double Mean() const { return count ? static_cast<double>(sum) / count : 0.0; }
  // Quantile estimate (q in [0,1]) at bucket midpoints; 0 when empty.
  double Quantile(double q) const;
};

class Histogram {
 public:
  void Record(uint64_t v);
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kHistNumBuckets> buckets_{};
};

// Exact quantile over raw samples (sorts a copy): the reference the
// histogram estimate is validated against. Uses the nearest-rank method.
double ExactQuantile(std::vector<uint64_t> samples, double q);

class MetricsRegistry {
 public:
  // Never destroyed (worker threads may record during process teardown).
  static MetricsRegistry& Instance();

  // Get-or-create by name; returned references are stable for the process
  // lifetime. Names are the catalogue in README "Observability".
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot SnapshotAll() const;

  // Zero every registered metric (benches/tests isolating a measurement).
  // Registered references stay valid.
  void ResetAll();

 private:
  MetricsRegistry() = default;

  // mu_ guards only the name -> metric maps (get-or-create and iteration);
  // the metric objects themselves record lock-free through stable pointers.
  mutable cachegen::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CG_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CG_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CG_GUARDED_BY(mu_);
};

}  // namespace cachegen::obs

// --- instrumentation macros --------------------------------------------------
// Each site resolves its metric once (thread-safe function-local static) and
// then records lock-free. `name` must be a string literal, which `"" name`
// enforces at compile time: a name chosen at run time (`c ? "a" : "b"`)
// would record every call under whichever name the site saw first.
#define CG_METRIC_COUNT(name, n)                                            \
  do {                                                                      \
    static ::cachegen::obs::Counter& cg_obs_c =                             \
        ::cachegen::obs::MetricsRegistry::Instance().GetCounter("" name);   \
    cg_obs_c.Add(n);                                                        \
  } while (0)

#define CG_METRIC_GAUGE_SET(name, v)                                        \
  do {                                                                      \
    static ::cachegen::obs::Gauge& cg_obs_g =                               \
        ::cachegen::obs::MetricsRegistry::Instance().GetGauge("" name);     \
    cg_obs_g.Set(static_cast<int64_t>(v));                                  \
  } while (0)

#define CG_METRIC_GAUGE_ADD(name, d)                                        \
  do {                                                                      \
    static ::cachegen::obs::Gauge& cg_obs_g =                               \
        ::cachegen::obs::MetricsRegistry::Instance().GetGauge("" name);     \
    cg_obs_g.Add(static_cast<int64_t>(d));                                  \
  } while (0)

#define CG_METRIC_GAUGE_MAX(name, v)                                        \
  do {                                                                      \
    static ::cachegen::obs::Gauge& cg_obs_g =                               \
        ::cachegen::obs::MetricsRegistry::Instance().GetGauge("" name);     \
    cg_obs_g.Max(static_cast<int64_t>(v));                                  \
  } while (0)

#define CG_METRIC_HIST(name, v)                                             \
  do {                                                                      \
    static ::cachegen::obs::Histogram& cg_obs_h =                           \
        ::cachegen::obs::MetricsRegistry::Instance().GetHistogram("" name); \
    cg_obs_h.Record(static_cast<uint64_t>(v));                              \
  } while (0)
