// MetricsRegistry: process-wide named counters, gauges, and log-bucketed
// histograms for the serving stack — the always-on half of the observability
// layer (the Tracer in obs/trace.h is the opt-in, timeline half).
//
// Hot-path cost model: instrumentation sites resolve their metric ONCE (a
// function-local static reference; registry lookup takes a mutex exactly
// once per site) and then record lock-free:
//   * Counter  — per-thread shards of cache-line-padded relaxed atomics;
//     increments touch only the calling thread's shard, Value() merges.
//   * Gauge    — a single relaxed atomic int64 (set/add semantics).
//   * Histogram — log-linear bucketing (8 sub-buckets per power of two, so a
//     bucket is at most 12.5% wide and a midpoint quantile estimate is
//     within ~6.7% of the true value), bucket counts sharded per thread like
//     counters. Record() is a bit-scan plus one relaxed fetch_add.
// Snapshot() merges shards; it is wait-free with respect to writers (a
// snapshot concurrent with recording sees each update or not — no tearing,
// no locks on the write path).
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

// Number of per-thread shards for counters/histograms. Threads map onto
// shards round-robin at first use; two threads only contend if the process
// runs more than kMetricShards recording threads.
inline constexpr size_t kMetricShards = 16;

// Shard index of the calling thread (assigned round-robin, cached
// thread-locally).
size_t ThreadMetricShard();

class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_[ThreadMetricShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kMetricShards];
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
  std::vector<uint64_t> buckets;  // kHistNumBuckets merged counts

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
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kHistNumBuckets> buckets{};
  };
  Shard shards_[kMetricShards];
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
// then records lock-free. `name` must be a string literal (or otherwise have
// static storage duration).
#define CG_METRIC_COUNT(name, n)                                       \
  do {                                                                 \
    static ::cachegen::obs::Counter& cg_obs_c =                        \
        ::cachegen::obs::MetricsRegistry::Instance().GetCounter(name); \
    cg_obs_c.Add(n);                                                   \
  } while (0)

#define CG_METRIC_GAUGE_SET(name, v)                                 \
  do {                                                               \
    static ::cachegen::obs::Gauge& cg_obs_g =                        \
        ::cachegen::obs::MetricsRegistry::Instance().GetGauge(name); \
    cg_obs_g.Set(static_cast<int64_t>(v));                           \
  } while (0)

#define CG_METRIC_GAUGE_ADD(name, d)                                 \
  do {                                                               \
    static ::cachegen::obs::Gauge& cg_obs_g =                        \
        ::cachegen::obs::MetricsRegistry::Instance().GetGauge(name); \
    cg_obs_g.Add(static_cast<int64_t>(d));                           \
  } while (0)

#define CG_METRIC_GAUGE_MAX(name, v)                                 \
  do {                                                               \
    static ::cachegen::obs::Gauge& cg_obs_g =                        \
        ::cachegen::obs::MetricsRegistry::Instance().GetGauge(name); \
    cg_obs_g.Max(static_cast<int64_t>(v));                           \
  } while (0)

#define CG_METRIC_HIST(name, v)                                          \
  do {                                                                   \
    static ::cachegen::obs::Histogram& cg_obs_h =                        \
        ::cachegen::obs::MetricsRegistry::Instance().GetHistogram(name); \
    cg_obs_h.Record(static_cast<uint64_t>(v));                           \
  } while (0)
