// Static frequency tables for the range coder.
//
// CacheGen's arithmetic coder (§5.2) is driven by probability models
// profiled offline, one per channel-layer combination. A FreqTable holds the
// normalized cumulative frequencies for one such model over a contiguous
// symbol alphabet [0, alphabet_size).
//
// Tables are normalized so the total equals kTotal (2^16), which lets the
// range coder divide by a constant-width total, and every symbol receives at
// least one count (Laplace smoothing) so unseen-at-profile-time symbols are
// still encodable, merely at a higher bit cost.
//
// Decode-side symbol resolution has two speeds, both equivalent:
//   - Lookup: binary search over the cumulative array (no extra memory);
//   - BucketLookup: a kBuckets-entry (2^8, 512 B) first-symbol index plus a
//     short cumulative scan — the lane decoder's path, where thousands of
//     per-channel-layer tables are live and a direct 2^16-entry array per
//     table would thrash every cache level (measured: 5x *slower* than binary
//     search at 2048 tables, while all bucket indices together stay
//     cache-resident).
// The bucket index is built lazily on first use — encode-only processes
// never pay for it — and is shared between copies.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>  // std::once_flag
#include <span>
#include <vector>

namespace cachegen {

class FreqTable {
 public:
  static constexpr uint32_t kTotalBits = 16;
  static constexpr uint32_t kTotal = 1u << kTotalBits;
  static constexpr uint32_t kBucketBits = 8;
  static constexpr uint32_t kBuckets = 1u << kBucketBits;

  FreqTable() = default;

  // Build from raw counts (one per symbol). Applies +1 smoothing and
  // normalizes to kTotal.
  static FreqTable FromCounts(std::span<const uint64_t> counts);

  // Uniform table over `alphabet_size` symbols (the "no model" fallback).
  static FreqTable Uniform(uint32_t alphabet_size);

  uint32_t alphabet_size() const { return static_cast<uint32_t>(freq_.size()); }

  uint32_t Freq(uint32_t symbol) const { return freq_[symbol]; }
  uint32_t CumFreq(uint32_t symbol) const { return cum_[symbol]; }

  // Raw cumulative array for decode loops that hoist the accessors.
  const uint32_t* CumData() const { return cum_.data(); }

  // Find the symbol whose cumulative interval contains `target` (< kTotal)
  // by binary search over the cumulative array.
  uint32_t Lookup(uint32_t target) const;

  // Bucket load + short scan. Equal to Lookup(target) for every
  // target < kTotal.
  uint32_t BucketLookup(uint32_t target) const {
    const uint16_t* b = BucketIndex();
    uint32_t s = b[target >> (kTotalBits - kBucketBits)];
    while (cum_[s + 1] <= target) ++s;
    return s;
  }

  // The kBuckets-entry first-symbol-per-bucket index backing BucketLookup,
  // built lazily and thread-safely on first use.
  const uint16_t* BucketIndex() const;

  // Expected bits to code `symbol` under this model (-log2 p): the oracle
  // the range coder's compression is checked against.
  double BitsFor(uint32_t symbol) const;

 private:
  void BuildCum();

  std::vector<uint32_t> freq_;  // per-symbol normalized frequency, sums to kTotal
  std::vector<uint32_t> cum_;   // cum_[s] = sum of freq_[0..s)

  // Lazily built bucket index; copies of an immutable table share it (the
  // table is never mutated after construction).
  struct LookupCache {
    std::once_flag bucket_once;
    std::vector<uint16_t> bucket;  // kBuckets entries
  };
  mutable std::shared_ptr<LookupCache> lookup_ = std::make_shared<LookupCache>();
};

}  // namespace cachegen
