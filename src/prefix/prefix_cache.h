// PrefixCache: content-addressed, refcounted chunk store — the shared-prefix
// reuse layer of the serving stack.
//
// Real serving traffic is dominated by shared prefixes (system prompts,
// few-shot templates, RAG boilerplate). Without this layer every context id
// is an opaque blob: two tenants sharing the same 8k-token system prompt
// store, evict, and stream two full copies. PrefixCache breaks contexts into
// chunk-aligned spans and keys each span's bitstreams by a SHA-256 digest of
// its token span + codec configuration:
//
//   context "fam0-sfx3"  ->  [cas-9f2a..., cas-b01c..., cas-77e4...]
//                                 |            |
//   context "fam0-sfx8"  ->  [cas-9f2a..., cas-b01c..., cas-c9d2...]
//                             (prefix chunks shared, refcount 2)
//
// Chunk entries are refcounted: a dedup'd chunk stays registered until the
// LAST referencing context is erased, so a family prefix is stored once
// however many members reference it.
//
// Lookups walk the request's own chunk addresses: a registered id's stored
// ones, else those of its spec's chunk grid, in order, until one is not in
// the layer. A chunk's address commits to its range and to the seeds of
// every earlier token, so a request whose context id was never stored still
// matches the longest cached chunk-aligned prefix of its token sequence: the
// serving layer then streams the covered chunks as encoded KV and ships only
// the uncovered suffix as text, pricing GPU prefill for the tail alone — the
// partial-prefix-hit scenario between a full hit and a full miss.
//
// Composition: PrefixCache is both a KVStore (the Engine reads and writes
// through it; writes are translated to content addresses and dedup'd) and a
// CacheTier layered over ANY inner CacheTier — a ShardedKVStore (cas entries
// live in RAM) or a TieredKVStore (cas entries demote to the cold tier at
// chunk granularity and promote back at cold-read price). The inner tier
// sees one "context" per content chunk.
//
// Capacity: the inner tier is the only budget, and it keeps recency and pins
// per chunk. Every covering LookupAndPin and every Touch stamp the chunks
// they cover, so a bounded inner evicts (or, tiered, demotes) the least
// recently used unpinned chunks: a family member's suffix can go while the
// prefix its siblings stream stays. A registration outlives chunks the
// inner evicted; a lookup of it covers the leading chunks still held (a
// partial hit) and its next write-back stores the rest again.
//
// Pins: Pin() on an announced or registered id pins that context's chunk
// addresses in the inner tier, stored yet or not, so a write-back's own
// later chunks cannot evict its earlier ones before its Touch stamps them.
// EraseContext is refused while a pin on the id is outstanding. A chunk
// whose last registration is erased while another id's pin holds it stays,
// still found by lookups, until the last Unpin frees it.
//
// Contexts stored without a BeginStore announcement (direct Engine users)
// pass through untranslated and behave exactly as the inner tier would.
//
// Concurrency: one mutex, mu_, guards the layer's metadata; it is the
// outermost lock of the storage lock order (storage/cache_tier.h).
// LookupAndPin, PutBatch, PreStoreCoverage, ContainsContext, Pin, Unpin and
// Touch call the inner tier under it, so a lookup that promotes a cold
// chunk holds the layer until the promotion is done. Chunk reads (Get)
// resolve the translation under mu_ and read the inner tier outside it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "storage/cache_tier.h"
#include "storage/kv_store.h"
#include "streamer/chunking.h"

namespace cachegen {

class PrefixCache final : public KVStore, public CacheTier {
 public:
  struct Options {
    // Must match the Engine's chunk_tokens: content addresses are computed
    // over the same chunk grid the encoder writes (ClusterServer validates).
    size_t chunk_tokens = kDefaultChunkTokens;
  };

  struct Stats {
    // Lookup outcomes (authoritative for the prefix layer; the inner tier's
    // counters additionally see per-chunk cas traffic).
    uint64_t full_hits = 0;
    uint64_t prefix_hits = 0;  // partial coverage served
    uint64_t misses = 0;
    // Cumulative chunk-aligned tokens served out of the shared prefix on
    // partial hits (the tokens that skipped text + GPU prefill).
    uint64_t covered_tokens = 0;
    // Dedup effect: bytes (and chunk stores) avoided because the content
    // address already existed.
    uint64_t deduped_bytes = 0;
    uint64_t deduped_chunks = 0;
    // What the layer stored: chunk entries and their bytes. A bounded inner
    // tier may since have evicted some; TotalBytes() is what it holds.
    uint64_t unique_chunks = 0;
    uint64_t unique_bytes = 0;
    uint64_t contexts = 0;       // registered contexts
  };

  PrefixCache(std::shared_ptr<CacheTier> inner, Options opts);
  ~PrefixCache() override;

  // --- KVStore interface ---------------------------------------------------
  // Put passes through untranslated (content addressing needs the whole
  // context at once; Engine::StoreKV persists via PutBatch).
  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override;
  // When `context_id` was announced via BeginStore and the batch covers the
  // full chunk grid, chunks are content-addressed, dedup'd against the
  // store, refcounted, and the context is registered. Otherwise the batch
  // passes through untranslated.
  void PutBatch(const std::string& context_id,
                std::span<const ChunkView> chunks) override CG_EXCLUDES(mu_);
  // True per chunk whose content address already holds every requested
  // level (and whose bytes the inner tier still has): Engine::StoreKV skips
  // prefill+encode for those, and PutBatch above accepts their omission.
  // Answers only for announced/registered ids — anything else has no
  // addressable spec and reports nothing covered.
  std::vector<bool> PreStoreCoverage(
      const std::string& context_id, size_t num_chunks,
      std::span<const int32_t> level_ids) const override CG_EXCLUDES(mu_);
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override
      CG_EXCLUDES(mu_);
  // A registered context counts only while the inner tier holds every one
  // of its chunks.
  bool ContainsContext(const std::string& context_id) const override
      CG_EXCLUDES(mu_);
  // Refused (like the inner tiers) while a pin on the id is outstanding.
  void EraseContext(const std::string& context_id) override CG_EXCLUDES(mu_);
  uint64_t TotalBytes() const override;  // physical (dedup'd) bytes
  // Logical bytes of one context (its chunks at full size, shared or not).
  uint64_t ContextBytes(const std::string& context_id) const override
      CG_EXCLUDES(mu_);

  // --- CacheTier interface -------------------------------------------------
  // CG_EXCLUDES(mu_): public entry points are never called with mu_ held —
  // the layer never re-enters itself, and no inner tier calls back into it.
  TierLookup LookupAndPin(const std::string& context_id, const ContextSpec& spec,
                          double t_s) override CG_EXCLUDES(mu_);
  void Pin(const std::string& context_id) override CG_EXCLUDES(mu_);
  void Unpin(const std::string& context_id) override CG_EXCLUDES(mu_);
  void Touch(const std::string& context_id, double t_s) override
      CG_EXCLUDES(mu_);
  void BeginStore(const std::string& context_id,
                  const ContextSpec& spec) override CG_EXCLUDES(mu_);
  void AbortStore(const std::string& context_id) override CG_EXCLUDES(mu_);
  void Flush() override { inner_->Flush(); }
  KVStore& kv() override { return *this; }
  const PrefixCache* prefix() const override { return this; }

  // Content address ("cas-" + 128-bit SHA-256 hex) of chunk `chunk_index`
  // of a context shaped like `spec` under this cache's configuration.
  // Deterministic and public so tests can assert aliasing.
  std::string ContentAddress(const ContextSpec& spec, size_t chunk_index) const;

  Stats stats() const CG_EXCLUDES(mu_);
  const Options& options() const { return opts_; }
  CacheTier& inner() { return *inner_; }

 private:
  struct ChunkEntry {
    uint32_t refs = 0;  // registered contexts referencing this chunk
    uint32_t pins = 0;  // outstanding lookups and Pin()s holding this chunk
    uint64_t bytes = 0;
    // Level ids already stored for this address, so a later layered store
    // of the same span adds its missing levels instead of being dropped.
    std::vector<int32_t> levels;
  };

  struct ContextEntry {
    ContextSpec spec;
    std::vector<std::string> cas_ids;  // per chunk index
    std::vector<ChunkRange> ranges;
    uint64_t logical_bytes = 0;
  };

  // All Locked helpers require mu_ (enforced by the thread-safety analysis).
  std::string ContentAddressFor(const ContextSpec& spec, size_t chunk_index,
                                const ChunkRange& range) const;
  // The spec `context_id` is stored under: a live BeginStore announcement,
  // else its registration (content is immutable per id, so a re-store reuses
  // the registered spec); null for a pass-through id.
  const ContextSpec* SpecLocked(const std::string& context_id) const
      CG_REQUIRES(mu_);
  // The announced/registered body of PutBatch; sets `passthrough` (and does
  // nothing else) when the id was never announced so the caller can forward
  // the batch to the inner tier with mu_ released.
  void PutBatchLocked(const std::string& context_id,
                      std::span<const ChunkView> chunks,
                      bool& passthrough) CG_REQUIRES(mu_);
  void DerefChunkLocked(const std::string& cas_id) CG_REQUIRES(mu_);
  // The inner tier evicted this chunk's bytes (its budget, or a tiered
  // inner's cold capacity): reset the entry's bytes and levels so the next
  // write-back re-stores instead of dedup'ing against nothing.
  void InvalidateLostChunkLocked(const std::string& cas_id) CG_REQUIRES(mu_);
  void EraseChunkLocked(const std::string& cas_id) CG_REQUIRES(mu_);
  void DeregisterContextLocked(const std::string& context_id,
                               ContextEntry& entry) CG_REQUIRES(mu_);

  std::shared_ptr<CacheTier> inner_;
  Options opts_;

  mutable Mutex mu_;
  std::unordered_map<std::string, ChunkEntry> chunks_
      CG_GUARDED_BY(mu_);  // by cas id
  std::unordered_map<std::string, ContextEntry> contexts_
      CG_GUARDED_BY(mu_);  // registered
  // Live BeginStore announcements: spec plus the number of writers that
  // announced and have not yet registered or aborted (a concurrent double
  // write-back announces twice; one writer's abort must not strand the
  // other's store on the raw pass-through path).
  struct Announcement {
    ContextSpec spec;
    int writers = 0;
  };
  std::unordered_map<std::string, Announcement> announced_ CG_GUARDED_BY(mu_);
  // Per id, one entry per outstanding LookupAndPin/Pin: the inner ids it
  // pinned (chunk addresses, or the pass-through id itself).
  std::unordered_map<std::string, std::vector<std::vector<std::string>>>
      pin_records_ CG_GUARDED_BY(mu_);
  uint64_t unique_bytes_ CG_GUARDED_BY(mu_) = 0;

  uint64_t full_hits_ CG_GUARDED_BY(mu_) = 0;
  uint64_t prefix_hits_ CG_GUARDED_BY(mu_) = 0;
  uint64_t misses_ CG_GUARDED_BY(mu_) = 0;
  uint64_t covered_tokens_total_ CG_GUARDED_BY(mu_) = 0;
  uint64_t deduped_bytes_ CG_GUARDED_BY(mu_) = 0;
  uint64_t deduped_chunks_ CG_GUARDED_BY(mu_) = 0;
};

}  // namespace cachegen
