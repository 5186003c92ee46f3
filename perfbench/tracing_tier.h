// TracingTier: a forwarding decorator over any CacheTier arrangement that
// times the storage calls the serving layer makes. It is both a KVStore and
// a CacheTier, and kv() returns the decorator itself, so an Engine built on
// it satisfies ClusterServer's "engine store == tier kv()" rule and every
// engine read/write passes through the same timing layer as the cluster's
// lookups and pins.
//
// Every virtual of both interfaces is forwarded, including PreStoreCoverage
// (dropping it would silently disable the prefix layer's dedup encode-skip),
// BeginStore/AbortStore, Flush and the hot_tier()/tiered()/prefix()
// accessors. Untimed calls cost one extra virtual dispatch.
//
// Recording is off by default. While on, each call appends one sample to a
// buffer owned by the calling thread (registered once per thread under a
// lock, then written lock-free); Stats() merges the buffers. Toggle
// recording and read Stats() only while no thread is inside the tier, e.g.
// before and after ClusterServer::Serve.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/cache_tier.h"
#include "storage/kv_store.h"

namespace cachegen::perfbench {

enum class StorageOp : size_t { kLookup = 0, kGet, kPutBatch, kUnpin, kCount };

struct OpStats {
  uint64_t calls = 0;
  double busy_s = 0.0;  // summed wall time inside the call
  double p99_us = 0.0;  // 0 when the op was never called
  uint64_t bytes = 0;   // payload bytes moved (get / put_batch)
};

class TracingTier final : public KVStore, public CacheTier {
 public:
  explicit TracingTier(std::shared_ptr<CacheTier> inner);

  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  OpStats Stats(StorageOp op) const;
  // Share of chunks PreStoreCoverage reported present while recording
  // (0 when nothing was queried).
  double PreStoreCoveredFrac() const;

  // --- KVStore --------------------------------------------------------------
  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override;
  void PutBatch(const std::string& context_id,
                std::span<const ChunkView> chunks) override;
  std::vector<bool> PreStoreCoverage(
      const std::string& context_id, size_t num_chunks,
      std::span<const int32_t> level_ids) const override;
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override;
  bool ContainsContext(const std::string& context_id) const override;
  void EraseContext(const std::string& context_id) override;
  uint64_t TotalBytes() const override;
  uint64_t ContextBytes(const std::string& context_id) const override;

  // --- CacheTier ------------------------------------------------------------
  TierLookup LookupAndPin(const std::string& context_id, const ContextSpec& spec,
                          double t_s) override;
  void Pin(const std::string& context_id) override;
  void Unpin(const std::string& context_id) override;
  void Touch(const std::string& context_id, double t_s) override;
  void BeginStore(const std::string& context_id,
                  const ContextSpec& spec) override;
  void AbortStore(const std::string& context_id) override;
  void Flush() override;
  KVStore& kv() override { return *this; }
  const ShardedKVStore* hot_tier() const override { return inner_->hot_tier(); }
  const TieredKVStore* tiered() const override { return inner_->tiered(); }
  const PrefixCache* prefix() const override { return inner_->prefix(); }

 private:
  struct Sample {
    uint64_t ns = 0;
    uint64_t bytes = 0;
  };
  struct Buffer {
    std::array<std::vector<Sample>, static_cast<size_t>(StorageOp::kCount)> ops;
    uint64_t coverage_queried = 0;
    uint64_t coverage_covered = 0;
  };

  bool recording() const { return recording_.load(std::memory_order_relaxed); }
  // The calling thread's buffer for this decorator (created on first use).
  Buffer& Local() const;
  void Record(StorageOp op, uint64_t start_ns, uint64_t bytes) const;

  std::shared_ptr<CacheTier> inner_;
  KVStore& kv_;
  const uint64_t id_;  // keys the per-thread buffer cache
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;  // guards buffers_ (registration and merge)
  mutable std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace cachegen::perfbench
