// TieredKVStore: hot-RAM / cold-disk KV cache hierarchy — the paper's
// dedicated-storage-server deployment grown a second tier.
//
// The wrapped ShardedKVStore is the hot tier. Where a bare sharded store
// ERASES a context on LRU capacity eviction (turning every future request
// for it into a full text-recompute miss), the tiered store DEMOTES it: the
// evicted bitstreams are captured via the shard's eviction sink and handed
// to a capacity-bounded persistent cold tier (a FileKVStore plus an
// in-memory LRU manifest). A lookup that misses the hot tier consults the
// manifest and PROMOTES on hit — the context moves back into hot RAM,
// pinned, and streams at KV quality; the serving layer charges a modeled
// cold-read latency instead of a re-prefill. Losing the fast tier degrades
// latency, not data.
//
//   LookupAndPin ──hot hit──────────────▶ stream from RAM      (KVTier::kHot)
//        │ miss
//        ├──cold manifest hit──promote──▶ stream, cold-priced  (KVTier::kCold)
//        │ miss
//        └───────────────────────────────▶ text + re-prefill    (KVTier::kMiss)
//
//   hot LRU eviction ──demote (RAM until Flush)──▶ cold tier
//   cold LRU eviction ───────────────────────────▶ gone for real
//
// Concurrency & determinism (lock order: storage/cache_tier.h):
//   * A demotion is registered in the manifest synchronously (under the
//     evicting shard's lock via the sink, then the cold mutex), with its
//     bytes held in RAM, so a lookup racing the eviction still sees the
//     context as cold. The sink does no disk I/O.
//   * One promotion runs at a time, under promote_mu_. A promotion takes the
//     context out of the manifest before its bytes reach the hot tier, so
//     every read that misses the hot tier (LookupAndPin, Get,
//     ContainsContext) takes promote_mu_ and asks the hot tier again before
//     it asks the manifest: it sees the context in one tier or the other.
//   * Flush() is the cold tier's only disk writer after construction. On the
//     calling thread, under cold_mu_, it removes the directories of contexts
//     that left the cold tier, writes each demotion still held in RAM (chunks,
//     then the context's completion sentinel) and rewrites the MANIFEST if
//     anything changed. Until then reads and promotions are served from the
//     RAM buffer, so outcomes never depend on disk speed or pool size.
//   * Bitstreams cross the tier boundary by move (with the default
//     MemoryKVStore hot backend): a demotion keeps the buffers the hot
//     tier's eviction took out, and a promotion hands the hot tier the
//     buffers it read from disk or reclaimed from a demotion not yet
//     persisted.
//   * Context content is immutable per id in this system, so the rare
//     hot/cold duplication windows (e.g. a write-back racing a demotion of
//     the same context) waste budget but never serve stale data.
//
// Restart: the constructor adopts contexts already present under cold_root
// that carry the per-context completion sentinel Flush() commits after the
// last chunk (directories without it are mid-persist debris from a crash
// and are reclaimed). A small on-disk manifest (rewritten by Flush()) maps
// each directory back to its original context id and LRU stamp, so
// '%'-mangled ids and recency survive process churn; sentinel-complete
// directories that are neither in the manifest nor round-trippable through
// SanitizeContextId are unreachable forever and are reclaimed.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "storage/cache_tier.h"
#include "storage/kv_store.h"
#include "storage/sharded_kv_store.h"

namespace cachegen {

// KVTier (which tier satisfied a lookup) lives in storage/cache_tier.h.

class TieredKVStore final : public KVStore, public CacheTier {
 public:
  struct Options {
    ShardedKVStore::Options hot;
    // Directory backing the cold tier (required).
    std::filesystem::path cold_root;
    // Cold-tier byte budget; 0 = unbounded. Like the hot tier, the cold
    // tier never evicts its last context.
    uint64_t cold_capacity_bytes = 0;
  };

  struct Stats {
    // Tiered-level lookup outcome counters (authoritative: the hot tier's
    // own hit/miss counters also count the second hot-tier probe a lookup
    // makes under promote_mu_).
    uint64_t hot_hits = 0;
    uint64_t cold_hits = 0;
    uint64_t misses = 0;
    uint64_t demotions = 0;
    uint64_t demoted_bytes = 0;
    uint64_t promotions = 0;
    uint64_t promoted_bytes = 0;
    uint64_t cold_evictions = 0;
    uint64_t cold_evicted_bytes = 0;
    // Bytes of demoted bitstreams still in RAM, awaiting Flush().
    uint64_t pending_demotion_bytes = 0;  // current
    uint64_t hot_bytes = 0;   // current
    uint64_t cold_bytes = 0;  // current (manifest accounting, incl. pending)
    ShardedKVStore::Stats hot_tier;  // raw hot-tier counters
  };

  // `hot_factory` builds the hot tier's shard backends (default: one
  // MemoryKVStore per shard); a test passes a recording backend to see which
  // buffers demotions take and promotions insert.
  explicit TieredKVStore(Options opts,
                         ShardedKVStore::BackendFactory hot_factory = nullptr);
  ~TieredKVStore() override;

  // --- KVStore interface ---------------------------------------------------
  // Writes land in the hot tier; reads fall through to the cold tier
  // (read-only, no promotion) so Engine::GetKV works wherever the bytes are.
  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override;
  void PutBatch(const std::string& context_id,
                std::span<const ChunkView> chunks) override;
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override;
  bool ContainsContext(const std::string& context_id) const override;
  // Removes the context from both tiers (the hot tier still refuses while
  // pinned; the cold copy goes regardless).
  void EraseContext(const std::string& context_id) override;
  uint64_t TotalBytes() const override;  // hot + cold
  uint64_t ContextBytes(const std::string& context_id) const override;

  // --- cluster-facing cache operations -------------------------------------
  // Hot tier first (counts + pins exactly like ShardedKVStore::LookupAndPin);
  // on hot miss, a cold-manifest hit promotes the context into the hot tier
  // — pinned, LRU-stamped at t_s, evicting (demoting) colder hot contexts as
  // needed — and reports kCold. The caller owns one Unpin either way.
  // All-or-nothing coverage; `spec` only sets covered_tokens.
  TierLookup LookupAndPin(const std::string& context_id, const ContextSpec& spec,
                          double t_s) override;

  // Pin/Unpin/Touch operate on the hot tier (a promoted context is hot).
  void Pin(const std::string& context_id) override;
  void Unpin(const std::string& context_id) override;
  void Touch(const std::string& context_id, double t_s) override;

  // Write the cold tier to disk on the calling thread: remove the
  // directories of contexts that left it, persist every demotion still in
  // RAM (one that fails to write stays in RAM for the next Flush) and
  // rewrite the MANIFEST if anything changed. A restart adopts what it left.
  void Flush() override;

  KVStore& kv() override { return *this; }

  Stats stats() const;
  ShardedKVStore& hot() { return *hot_; }
  const ShardedKVStore& hot() const { return *hot_; }

 private:
  struct ColdEntry {
    // (chunk_index, level_id) -> serialized size; fixed at demotion time.
    std::map<std::pair<uint32_t, int32_t>, uint32_t> chunk_bytes;
    // Bitstreams until Flush() persists them; reads and promotions are
    // served from here until then.
    std::vector<OwnedChunk> buffer;
    uint64_t bytes = 0;
    double last_touch_s = 0.0;
    bool persisted = false;  // bytes live on disk; buffer released
  };

  using ColdMap = std::unordered_map<std::string, ColdEntry>;

  void AdoptPersistedColdContexts();
  void OnHotEviction(ShardedKVStore::EvictedContext&& victim);
  // Takes a context out of the cold tier and its byte accounting. Its
  // directory stays until the caller queues it in cold_erase_ids_.
  ColdEntry TakeColdLocked(ColdMap::iterator it) CG_REQUIRES(cold_mu_);
  void SetPendingLocked(uint64_t bytes) CG_REQUIRES(cold_mu_);
  void EnforceColdCapacityLocked(const std::string* keep)
      CG_REQUIRES(cold_mu_);
  // Rewrite the on-disk manifest (temp + rename) from the persisted entries.
  void WriteManifestLocked() CG_REQUIRES(cold_mu_);

  Options opts_;
  std::unique_ptr<ShardedKVStore> hot_;
  std::unique_ptr<FileKVStore> cold_backend_;

  // Held for a whole promotion, and by every read that missed the hot tier.
  mutable Mutex promote_mu_;
  mutable Mutex cold_mu_;
  ColdMap cold_ CG_GUARDED_BY(cold_mu_);
  uint64_t cold_bytes_ CG_GUARDED_BY(cold_mu_) = 0;
  // RAM-buffered demotion bytes awaiting Flush().
  uint64_t pending_demotion_bytes_ CG_GUARDED_BY(cold_mu_) = 0;
  // Contexts that left the cold tier since the last Flush(), whose
  // directories it removes.
  std::vector<std::string> cold_erase_ids_ CG_GUARDED_BY(cold_mu_);

  std::atomic<uint64_t> hot_hits_{0};
  std::atomic<uint64_t> cold_hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> demotions_{0};
  std::atomic<uint64_t> demoted_bytes_{0};
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> promoted_bytes_{0};
  std::atomic<uint64_t> cold_evictions_{0};
  std::atomic<uint64_t> cold_evicted_bytes_{0};
};

}  // namespace cachegen
