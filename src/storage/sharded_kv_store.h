// ShardedKVStore: the cluster-grade KV cache tier. Wraps one KVStore backend
// per shard (in-memory by default, directory-backed via a custom factory)
// behind per-shard locks so callers on several threads contend only within
// a shard — the same sharding-by-key discipline line-rate forwarders use to
// scale. (A ClusterServer makes every serving call from its one coordinator
// thread; tests and benches drive stores from several.)
// Where the shard locks sit in the storage lock order: storage/cache_tier.h.
//
// On top of plain chunk storage it adds what a serving cluster needs:
//   * a capacity bound (total bytes across all levels), enforced per shard
//     with LRU eviction at whole-context granularity — a context whose
//     chunks are half-evicted is useless, so eviction is all-or-nothing.
//     A shard keeps at least one context, so a single context bigger than
//     its per-shard slice (capacity/num_shards) overflows rather than
//     thrashing; size shards so the hottest context fits a slice;
//   * pinning, so a context being streamed or written is never evicted
//     out from under an in-flight request;
//   * hit/miss/eviction counters, the cache-health metrics the cluster
//     benches report.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "storage/cache_tier.h"
#include "storage/kv_store.h"

namespace cachegen {

class ShardedKVStore final : public KVStore, public CacheTier {
 public:
  struct Options {
    size_t num_shards = 8;
    // Total capacity in stored bytes across all shards; 0 = unbounded.
    // Enforced as capacity/num_shards per shard.
    uint64_t capacity_bytes = 0;
  };

  struct Stats {
    uint64_t context_hits = 0;    // LookupAndPin found the context
    uint64_t context_misses = 0;  // LookupAndPin did not
    uint64_t evictions = 0;       // contexts evicted for capacity
    uint64_t evicted_bytes = 0;
    uint64_t stored_bytes = 0;    // current total (same as TotalBytes())
  };

  using BackendFactory = std::function<std::unique_ptr<KVStore>(size_t shard)>;

  // A context removed by capacity eviction, bytes included, handed to the
  // eviction sink so a tiered wrapper can demote it instead of losing it.
  // The chunks are the backend's own buffers, taken out by KVStore::Take
  // (moved for the default MemoryKVStore backend).
  struct EvictedContext {
    std::string context_id;
    double last_touch_s = 0.0;  // LRU stamp at eviction time
    uint64_t bytes = 0;
    std::vector<OwnedChunk> chunks;
  };

  // Invoked for every capacity eviction (never for explicit EraseContext),
  // while the owning shard's lock is held — the sink must only hand the data
  // off (enqueue/buffer), never touch this store or block on I/O.
  using EvictionSink = std::function<void(EvictedContext&&)>;

  // Default backend: one MemoryKVStore per shard. The sink is fixed for the
  // store's lifetime; without one, capacity eviction erases.
  explicit ShardedKVStore(Options opts, BackendFactory factory = nullptr,
                          EvictionSink sink = nullptr);

  // --- KVStore interface (each call locks exactly one shard) ---------------
  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override;

  // Every chunk of one context under a single shard-lock hold, so the
  // context becomes visible to concurrent LookupAndPin calls atomically —
  // absent or complete, never half-populated (Engine write-backs and the
  // tiered store's promotion rely on this). If the context had no chunks
  // before the call, a backend failure rolls the insert back entirely (a
  // pinned placeholder survives as pin-only); a failing overwrite of an
  // existing context keeps the chunks that landed, with consistent
  // accounting. Capacity is enforced once after the inserts, keeping this
  // context. Put() is the one-chunk special case of this.
  //
  // Trade-off, by design: the shard lock is held across every backend write,
  // so a whole-context write-back on a FILE-backed shard serializes that
  // shard behind disk I/O for the duration. Staging the files outside the
  // lock would let Get() observe chunks of a context that does not exist
  // yet and reopen the partial-failure cleanup races this call closes;
  // the memory-backed default holds the lock only for memcpys.
  void PutBatch(const std::string& context_id,
                std::span<const ChunkView> chunks) override;
  // The same batch insert with the buffers handed over: each chunk's buffer
  // goes to the backend through KVStore::Insert, so the default
  // MemoryKVStore keeps it without a copy. Checks, rollback and capacity
  // enforcement are the span form's.
  void PutBatch(const std::string& context_id, std::vector<OwnedChunk> chunks);
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override;
  bool ContainsContext(const std::string& context_id) const override;
  void EraseContext(const std::string& context_id) override;
  uint64_t TotalBytes() const override;
  uint64_t ContextBytes(const std::string& context_id) const override;

  // --- cluster-facing cache operations (CacheTier) --------------------------
  // Atomically: test presence, count hit/miss, LRU-touch at time `t_s`
  // (virtual time from the cluster clock keeps eviction order deterministic),
  // and pin on hit so the context survives until Unpin. All-or-nothing (no
  // partial coverage), kHot on hit; `spec` only sets covered_tokens.
  TierLookup LookupAndPin(const std::string& context_id, const ContextSpec& spec,
                          double t_s) override;

  // Pin regardless of presence (used while a miss is being written back).
  void Pin(const std::string& context_id) override;
  void Unpin(const std::string& context_id) override;

  // LRU-touch without hit/miss accounting. Put() deliberately does not
  // refresh recency (it has no virtual-time source), so a write-back must
  // Touch the context or it would look idle-since-t=0 and be the first
  // eviction victim.
  void Touch(const std::string& context_id, double t_s) override;

  KVStore& kv() override { return *this; }

  Stats stats() const;
  uint64_t capacity_bytes() const { return opts_.capacity_bytes; }

 private:
  struct ContextMeta {
    // Exact per-chunk sizes so overwrites are accounted without re-reading
    // the backend.
    std::map<std::pair<uint32_t, int32_t>, uint32_t> chunk_bytes;
    uint64_t bytes = 0;
    double last_touch_s = 0.0;  // equal instants tie-break by context id
    int pins = 0;
  };

  struct Shard {
    mutable Mutex mu;
    std::unique_ptr<KVStore> backend CG_GUARDED_BY(mu);
    std::unordered_map<std::string, ContextMeta> contexts CG_GUARDED_BY(mu);
    uint64_t bytes CG_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const std::string& context_id);
  const Shard& ShardFor(const std::string& context_id) const;
  // The body both PutBatch forms share; `Chunk` is `const ChunkView` or
  // `OwnedChunk`.
  template <typename Chunk>
  void PutBatchImpl(const std::string& context_id, std::span<Chunk> chunks);
  // Evict LRU unpinned contexts (never `*keep` when non-null) until the
  // shard fits its capacity slice. Caller holds the shard lock.
  void EnforceCapacityLocked(Shard& shard, const std::string* keep)
      CG_REQUIRES(shard.mu);
  void TouchLocked(ContextMeta& meta, double t_s);

  Options opts_;
  uint64_t shard_capacity_ = 0;
  const EvictionSink eviction_sink_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> evicted_bytes_{0};
};

}  // namespace cachegen
