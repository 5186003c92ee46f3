#include "ac/freq_table.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cachegen {

FreqTable FreqTable::FromCounts(std::span<const uint64_t> counts) {
  if (counts.empty()) throw std::invalid_argument("FreqTable: empty alphabet");
  if (counts.size() >= kTotal) {
    throw std::invalid_argument("FreqTable: alphabet too large for total");
  }
  const uint32_t n = static_cast<uint32_t>(counts.size());

  // Light additive smoothing so every symbol is encodable. The epsilon is
  // proportional to the observed mass: heavy +1 smoothing would hand ~10% of
  // the probability mass to never-seen symbols for small profiling sets,
  // costing a few tenths of a bit on every coded symbol.
  uint64_t observed = 0;
  for (uint64_t c : counts) observed += c;
  const double alpha =
      std::max(1e-4 * static_cast<double>(observed) / static_cast<double>(n), 1e-3);
  std::vector<double> smoothed(n);
  double total = 0.0;
  for (uint32_t s = 0; s < n; ++s) {
    smoothed[s] = static_cast<double>(counts[s]) + alpha;
    total += smoothed[s];
  }

  FreqTable t;
  t.freq_.assign(n, 1);
  // Largest-remainder normalization to exactly kTotal, with a floor of 1.
  uint32_t assigned = 0;
  std::vector<std::pair<double, uint32_t>> remainders;
  remainders.reserve(n);
  const double scale = static_cast<double>(kTotal - n) / total;  // reserve 1 per symbol
  for (uint32_t s = 0; s < n; ++s) {
    const double exact = smoothed[s] * scale;
    const uint32_t extra = static_cast<uint32_t>(exact);
    t.freq_[s] += extra;
    assigned += 1 + extra;
    remainders.emplace_back(exact - static_cast<double>(extra), s);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (uint32_t i = 0; assigned < kTotal; ++i) {
    t.freq_[remainders[i % n].second] += 1;
    ++assigned;
  }
  t.BuildCum();
  return t;
}

FreqTable FreqTable::Uniform(uint32_t alphabet_size) {
  std::vector<uint64_t> counts(alphabet_size, 1);
  return FromCounts(counts);
}

void FreqTable::BuildCum() {
  cum_.assign(freq_.size() + 1, 0);
  for (size_t s = 0; s < freq_.size(); ++s) cum_[s + 1] = cum_[s] + freq_[s];
}

uint32_t FreqTable::Lookup(uint32_t target) const {
  // cum_ is strictly increasing (every freq >= 1): binary search.
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), target);
  return static_cast<uint32_t>(it - cum_.begin()) - 1;
}

const uint16_t* FreqTable::BucketIndex() const {
  LookupCache& cache = *lookup_;
  std::call_once(cache.bucket_once, [this, &cache] {
    if (freq_.empty()) {
      throw std::logic_error("FreqTable::BucketIndex: empty table");
    }
    cache.bucket.resize(kBuckets);
    uint32_t s = 0;
    for (uint32_t b = 0; b < kBuckets; ++b) {
      // First symbol whose interval covers the bucket's first target.
      const uint32_t start = b << (kTotalBits - kBucketBits);
      while (cum_[s + 1] <= start) ++s;
      cache.bucket[b] = static_cast<uint16_t>(s);
    }
  });
  return cache.bucket.data();
}

double FreqTable::BitsFor(uint32_t symbol) const {
  const double p = static_cast<double>(freq_[symbol]) / static_cast<double>(kTotal);
  return -std::log2(p);
}

}  // namespace cachegen
