// PrefixCache: content-addressed, refcounted chunk store + radix prefix
// index — the shared-prefix reuse layer of the serving stack.
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
// Chunk entries are refcounted: dedup'd chunks survive until the LAST
// referencing context is evicted, so evicting one family member frees only
// its unshared suffix bytes — the cache's effective capacity is amplified by
// exactly the prefix-share of the workload.
//
// Lookups go through a radix index over token-id sequences. A request whose
// context id was never stored can still match the longest cached
// chunk-aligned prefix of its token sequence: the serving layer then streams
// the covered chunks as encoded KV and ships only the uncovered suffix as
// text, pricing GPU prefill for the tail alone — the partial-prefix-hit
// scenario between a full hit and a full miss.
//
// Composition: PrefixCache is both a KVStore (the Engine reads and writes
// through it; writes are translated to content addresses and dedup'd) and a
// CacheTier layered over ANY inner CacheTier — a ShardedKVStore (cas entries
// live in RAM) or a TieredKVStore (cas entries demote to the cold tier at
// chunk granularity and promote back at cold-read price). The inner tier
// sees one "context" per content chunk.
//
// Capacity: the prefix layer owns context-level LRU eviction over its OWN
// byte budget (Options::capacity_bytes, counted over unique chunk bytes).
// Evicting a context decrements its chunks' refcounts; zero-ref chunks are
// erased from the inner tier (deferred while pinned by an in-flight
// stream). Configure the inner sharded tier unbounded when the prefix layer
// is in charge of existence; an inner tiered hot bound stays meaningful (it
// controls which cas chunks stay in RAM, not which exist).
//
// Contexts stored without a BeginStore announcement (direct Engine users)
// pass through untranslated and behave exactly as the inner tier would.
//
// Concurrency: one mutex guards the layer's metadata (lock order: prefix
// mu_ -> inner tier locks; the inner tier never calls back), but no inner
// I/O runs under it. Chunk READS (Get) resolve the translation under the
// lock and read the inner tier outside it, and LookupAndPin resolves its
// candidate chunk run and PRE-PINS it under mu_, then performs the
// per-chunk inner lookups (cold promotion I/O) unlocked, then re-locks to
// reconcile — backing out pre-pins past the covered run, completing any
// deferred zombie erasure that landed on it, and classifying the outcome
// against the post-gap context state. A cold promotion therefore stalls
// only its own request, never the layer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "prefix/radix_index.h"
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
    // Byte budget over unique chunk bytes; 0 = unbounded. LRU at context
    // granularity; the last context soft-overflows rather than thrashing.
    uint64_t capacity_bytes = 0;
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
    // Current state.
    uint64_t unique_chunks = 0;
    uint64_t unique_bytes = 0;   // physical bytes across unique chunks
    uint64_t contexts = 0;       // registered contexts
    // Prefix-layer evictions (context granularity) and the bytes they
    // actually freed (shared chunks survive, so freed <= logical bytes).
    uint64_t evictions = 0;
    uint64_t freed_bytes = 0;
  };

  PrefixCache(std::shared_ptr<CacheTier> inner, Options opts);
  ~PrefixCache() override;

  // --- KVStore interface ---------------------------------------------------
  // Put passes through untranslated (content addressing needs the whole
  // context at once; Engine::StoreKV persists via PutBatch).
  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override;
  // When `context_id` was announced via BeginStore and the batch covers the
  // full chunk grid, chunks are content-addressed, dedup'd against the
  // store, refcounted, and the context is registered in the radix index.
  // Otherwise the batch passes through untranslated.
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
  bool ContainsContext(const std::string& context_id) const override
      CG_EXCLUDES(mu_);
  // Refused (like the inner tiers) while the context is pinned.
  void EraseContext(const std::string& context_id) override CG_EXCLUDES(mu_);
  uint64_t TotalBytes() const override;  // physical (dedup'd) bytes
  // Logical bytes of one context (its chunks at full size, shared or not).
  uint64_t ContextBytes(const std::string& context_id) const override
      CG_EXCLUDES(mu_);

  // --- CacheTier interface -------------------------------------------------
  // CG_EXCLUDES(mu_) encodes the layer's core concurrency rule: public entry
  // points are never called with mu_ held, because inner-tier I/O (possibly
  // cold-tier disk reads) must run with the prefix lock RELEASED.
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
  const ShardedKVStore* hot_tier() const override { return inner_->hot_tier(); }
  const TieredKVStore* tiered() const override { return inner_->tiered(); }
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
    uint32_t pins = 0;  // in-flight lookups streaming this chunk
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
    double last_touch_s = 0.0;
    int pins = 0;
  };

  // One LookupAndPin/Pin obligation; Unpin pops the most recent.
  struct PinRecord {
    bool context_pin = false;           // a registered/pending context pin
    bool raw = false;                   // forwarded to the inner tier as-is
    std::vector<std::string> cas_ids;   // inner chunk pins to release
  };

  // All Locked helpers require mu_ (enforced by the thread-safety analysis).
  std::string ContentAddressFor(const ContextSpec& spec, size_t chunk_index,
                                const ChunkRange& range) const;
  // The announced/registered body of PutBatch; sets `passthrough` (and does
  // nothing else) when the id was never announced so the caller can forward
  // the batch to the inner tier with mu_ released.
  void PutBatchLocked(const std::string& context_id,
                      std::span<const ChunkView> chunks,
                      bool& passthrough) CG_REQUIRES(mu_);
  void DerefChunkLocked(const std::string& cas_id) CG_REQUIRES(mu_);
  // The inner tier genuinely lost this chunk's bytes (e.g. cold-capacity
  // eviction behind a tiered inner): drop the stale entry so the next
  // write-back re-stores instead of dedup'ing against nothing.
  void InvalidateLostChunkLocked(const std::string& cas_id) CG_REQUIRES(mu_);
  void EraseChunkLocked(const std::string& cas_id) CG_REQUIRES(mu_);
  void DeregisterContextLocked(const std::string& context_id,
                               ContextEntry& entry) CG_REQUIRES(mu_);
  void EnforceCapacityLocked(const std::string* keep) CG_REQUIRES(mu_);

  std::shared_ptr<CacheTier> inner_;
  Options opts_;

  // Lock order: prefix mu_ -> inner tier locks; the inner tier never calls
  // back into this layer, so the order cannot invert.
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
  std::unordered_map<std::string, int> pending_pins_
      CG_GUARDED_BY(mu_);  // pinned before stored
  std::unordered_map<std::string, std::vector<PinRecord>> pin_records_
      CG_GUARDED_BY(mu_);
  RadixPrefixIndex index_ CG_GUARDED_BY(mu_);
  uint64_t unique_bytes_ CG_GUARDED_BY(mu_) = 0;

  uint64_t full_hits_ CG_GUARDED_BY(mu_) = 0;
  uint64_t prefix_hits_ CG_GUARDED_BY(mu_) = 0;
  uint64_t misses_ CG_GUARDED_BY(mu_) = 0;
  uint64_t covered_tokens_total_ CG_GUARDED_BY(mu_) = 0;
  uint64_t deduped_bytes_ CG_GUARDED_BY(mu_) = 0;
  uint64_t deduped_chunks_ CG_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ CG_GUARDED_BY(mu_) = 0;
  uint64_t freed_bytes_ CG_GUARDED_BY(mu_) = 0;
};

}  // namespace cachegen
