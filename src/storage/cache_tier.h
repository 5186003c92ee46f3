// CacheTier: the one interface the cluster serves through, whatever the
// cache arrangement behind it — a bare ShardedKVStore, a hot/cold
// TieredKVStore, or the prefix-sharing PrefixCache layered over either.
//
// Before this interface existed, ClusterServer carried both a sharded and a
// tiered member with ternary dispatch at every call site; a third
// arrangement would have meant a third branch at each. Now the server holds
// a single CacheTier and the tier arrangements compose: PrefixCache wraps
// any inner CacheTier, so "prefix dedup over hot/cold tiering" is a
// constructor expression, not a new server mode.
//
// The lookup result is richer than hit/miss because the serving layer
// prices the scenarios differently:
//   kHot  full hit   — stream encoded KV from RAM;
//   kCold full hit   — stream encoded KV through the cold-read model;
//   remote hit       — any_remote: the bytes live on a peer node of a
//                      multi-node CacheFabric and additionally price
//                      through the remote-read model;
//   partial prefix   — tier() == kMiss but covered_chunks > 0: the leading
//                      chunks are cached (content-addressed, shared with
//                      other contexts) and stream as KV; only the uncovered
//                      tail ships as text and pays GPU prefill;
//   miss             — full text + re-prefill.
//
// Pin discipline: LookupAndPin takes pins (context and/or covered chunk
// pins, tier-specific) whenever `pinned` is true in the result; the caller
// owes exactly one Unpin for it. Pin() pins regardless of presence (the
// write-back path); Touch() stamps recency with cluster virtual time.
//
// Lock order, outermost first, for every arrangement of the tiers:
//
//   PrefixCache mu_ -> CacheFabric dir_mu_ -> TieredKVStore promote_mu_
//     -> ShardedKVStore shard locks -> TieredKVStore cold_mu_
//
// A call may skip levels, but never takes an outer lock while it holds an
// inner one. No inner tier calls back into an outer one: the hot tier's
// eviction sink only registers the demotion under cold_mu_, and a fabric
// node's prefix layer reaches other nodes' stores, never their prefix
// layers. TieredKVStore::Flush() does its disk I/O under cold_mu_ alone.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "llm/synthetic_model.h"

namespace cachegen {

class KVStore;
class ShardedKVStore;
class TieredKVStore;
class PrefixCache;

// Which tier satisfied a full-context lookup — the cluster's serving
// scenarios (the partial-prefix scenario reports kMiss here plus a nonzero
// chunk coverage in TierLookup).
enum class KVTier { kMiss = 0, kHot, kCold };

struct TierLookup {
  KVTier tier = KVTier::kMiss;  // full-context outcome
  // Chunk-aligned covered prefix (prefix-aware tiers only; plain tiers
  // report 0 on miss). On a full hit covered == total.
  size_t covered_chunks = 0;
  size_t total_chunks = 0;
  size_t covered_tokens = 0;
  // Some covered chunk was served by promoting the cold tier — the serving
  // layer prices the stream through the cold-read model.
  bool any_cold = false;
  // Some covered byte lives on a peer node of a multi-node fabric (the
  // request landed away from the context's home node, or a covered chunk
  // was fetched from a remote replica) — the serving layer prices the
  // stream through the remote-read model. Single-node tiers never set it.
  bool any_remote = false;
  // The lookup took pins the caller must release with exactly one Unpin.
  bool pinned = false;
  // Owning node of the context on a multi-node fabric (-1 on single-node
  // tiers) — the serving layer's per-node telemetry attribution.
  int home_node = -1;

  bool hit() const { return tier != KVTier::kMiss; }
  // Partial-prefix scenario: not a full hit, but a usable cached prefix.
  bool prefix_hit() const { return tier == KVTier::kMiss && covered_chunks > 0; }
};

class CacheTier {
 public:
  virtual ~CacheTier() = default;

  // Atomically test/pin/touch under cluster virtual time `t_s`. `spec` lets
  // prefix-aware tiers address the request's chunks for a prefix match;
  // plain tiers ignore it.
  virtual TierLookup LookupAndPin(const std::string& context_id,
                                  const ContextSpec& spec, double t_s) = 0;

  // Pin regardless of presence (held while a miss is written back).
  virtual void Pin(const std::string& context_id) = 0;
  virtual void Unpin(const std::string& context_id) = 0;
  virtual void Touch(const std::string& context_id, double t_s) = 0;

  // Announce that `context_id` with `spec` is about to be stored through
  // kv() (Engine::StoreKV): prefix-aware tiers need the spec to
  // content-address the incoming chunks. Plain tiers ignore it. A store
  // that fails after the announcement should AbortStore so the tier can
  // drop announcement state it will never consume.
  virtual void BeginStore(const std::string& context_id,
                          const ContextSpec& spec) {
    (void)context_id;
    (void)spec;
  }
  virtual void AbortStore(const std::string& context_id) { (void)context_id; }

  // Write what the tier holds only in RAM to its backing store (the tiered
  // store's demotions, and the cold directories it owes removal), so on-disk
  // state is settled for the caller and for a restart.
  virtual void Flush() {}

  // The KVStore the Engine serving this tier must be constructed with —
  // reads and writes must flow through the tier so translation/dedup and
  // tiering apply.
  virtual KVStore& kv() = 0;

  // hot_tier() and tiered() have no overrides and no readers in the
  // library; they stay only because perfbench/tracing_tier.h overrides them.
  virtual const ShardedKVStore* hot_tier() const { return nullptr; }
  virtual const TieredKVStore* tiered() const { return nullptr; }
  // Non-null when the prefix-sharing layer is in the arrangement.
  virtual const PrefixCache* prefix() const { return nullptr; }
};

}  // namespace cachegen
