#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace cachegen::obs {

size_t ThreadMetricShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

// --- Counter -----------------------------------------------------------------

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::Reset() {
  for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

// --- histogram bucketing -----------------------------------------------------

size_t HistBucketIndex(uint64_t v) {
  if (v < kHistSubBuckets) return static_cast<size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kHistSubBits;
  const size_t sub = static_cast<size_t>(v >> shift) & (kHistSubBuckets - 1);
  const size_t index =
      static_cast<size_t>(msb - kHistSubBits + 1) * kHistSubBuckets + sub;
  return std::min(index, kHistNumBuckets - 1);
}

uint64_t HistBucketLower(size_t index) {
  if (index < kHistSubBuckets) return index;
  const size_t group = index / kHistSubBuckets;       // >= 1
  const size_t sub = index % kHistSubBuckets;
  const int msb = static_cast<int>(group) + kHistSubBits - 1;
  return (uint64_t{1} << msb) |
         (static_cast<uint64_t>(sub) << (msb - kHistSubBits));
}

uint64_t HistBucketUpper(size_t index) {
  if (index < kHistSubBuckets) return index + 1;
  const size_t group = index / kHistSubBuckets;
  const int msb = static_cast<int>(group) + kHistSubBits - 1;
  return HistBucketLower(index) + (uint64_t{1} << (msb - kHistSubBits));
}

// --- Histogram ---------------------------------------------------------------

void Histogram::Record(uint64_t v) {
  Shard& s = shards_[ThreadMetricShard()];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.buckets[HistBucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kHistNumBuckets, 0);
  for (const Shard& s : shards_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kHistNumBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank over the merged bucket counts, estimated at the bucket
  // midpoint — matches ExactQuantile's rank convention so the only error is
  // the bucket width.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * count)));
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return (static_cast<double>(HistBucketLower(b)) +
              static_cast<double>(HistBucketUpper(b))) /
             2.0;
    }
  }
  return static_cast<double>(HistBucketUpper(buckets.size() - 1));
}

double ExactQuantile(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size()))));
  return static_cast<double>(samples[rank - 1]);
}

// --- MetricsRegistry ---------------------------------------------------------

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never destroyed
  return *instance;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

MetricsRegistry::Snapshot MetricsRegistry::SnapshotAll() const {
  MutexLock lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->Snapshot();
  return snap;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace cachegen::obs
