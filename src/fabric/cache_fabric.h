// CacheFabric: the multi-node cache tier — N in-process simulated cache
// nodes behind one CacheTier, with consistent-hash placement, node-local
// prefix layers, and peer fetch of content-addressed chunks.
//
// Topology and routing:
//   * Every context id has a HOME node — HashRing::PrimaryNode over the
//     placement ring — that owns its metadata: registration, chunk
//     addresses, pin records. Lookups and stores route to the home node's
//     tier; a lookup's prefix match never leaves that node's prefix layer.
//   * Every request also has a FRONT node — an independent hash of the
//     context id (kRouteSeed) modelling which node the load balancer handed
//     the request to. When front != home, a hit's bytes cross the fabric
//     interconnect: the serving layer prices the stream through the
//     remote-read model (ClusterServer Options::remote_read_gbps /
//     remote_rtt_s), giving the cluster its fifth scenario — remote hit —
//     strictly between a local hit and a miss.
//   * `cas-` content-addressed chunks (the prefix layer's currency) are
//     placed by the ring INDEPENDENTLY of their referencing contexts and
//     striped across `chunk_replicas` successor nodes. A fabric-global
//     chunk directory maps cas id -> {owner replica set, holder nodes}; a
//     home node whose context references a chunk owned elsewhere fetches it
//     from a peer (counted, and flagged so the serving layer prices the
//     stream remote). Two contexts homed on DIFFERENT nodes that share a
//     prefix therefore share physical chunk bytes — dedup works across the
//     node boundary, which is the whole point of peer fetch.
//   * Concurrent readers of a hot striped chunk spread over its replicas by
//     CRT-style deterministic schedules (fabric/replica_schedule.h): reader
//     k's fetch of chunk j (slot j is the chunk's index in its context) goes
//     to replica (offset_k + j*step_k) mod R, so two readers collide on at
//     most one chunk per R and no replica becomes the convergence point.
//     Because the slot is the chunk's, a lookup and a later assembly read
//     of the same chunk, on whatever thread, pick the same replica.
//     Per-node read counters feed the replica-load gauge
//     (`fabric.replica.max_read_share_pct`) the bench gates on.
//
// Determinism: placement, routing, replica choice (a pure function of the
// request id and the chunk index), and therefore every hit/remote/miss
// outcome are pure functions of (ids, options) — seeded hashing
// throughout, no RNG, no wall-clock, no per-thread state. Reruns are
// bit-identical (CI gates on it).
//
// Locks: storage/cache_tier.h states the order. NodeViews are only ever
// called from inside their own node's prefix layer (or the fabric's own
// routing, which holds no lock); a node's prefix layer reaches other nodes'
// stores, never their prefix layers, and node stores never call upward.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "fabric/hash_ring.h"
#include "prefix/prefix_cache.h"
#include "storage/cache_tier.h"
#include "storage/kv_store.h"
#include "storage/sharded_kv_store.h"

namespace cachegen {

class CacheFabric final : public KVStore, public CacheTier {
 public:
  struct Options {
    // Simulated node count; holder tracking uses a 64-bit mask, so <= 64.
    size_t num_nodes = 4;
    // Replica stripe width for cas- chunks (clamped to num_nodes).
    size_t chunk_replicas = 2;
    // Per-node local store: the hot slice every node owns. Its capacity is
    // the budget, over cas chunks (and whole pass-through contexts): the
    // prefix layer keeps none of its own.
    ShardedKVStore::Options node_store;
    // Non-empty: each node's store is a hot/cold TieredKVStore rooted at
    // cold_root/"node<i>", with an unbounded cold tier — cold promotions
    // then price through the cold read model exactly as on a single node.
    std::filesystem::path cold_root;
    // Per-node prefix layer (content addressing and dedup).
    // Off = contexts store whole on their home node, no peer chunk fetch.
    bool prefix = true;
    PrefixCache::Options prefix_opts;
  };

  struct Stats {
    // Fabric-level lookup outcomes. A full hit is LOCAL when the request's
    // front node is its home node and every chunk fetch stayed there.
    uint64_t local_hits = 0;
    uint64_t remote_hits = 0;
    uint64_t prefix_hits = 0;  // partial coverage (remote or not)
    uint64_t misses = 0;
    // Chunk traffic: every cas chunk read, split by whether the serving
    // (home) node owned the replica it read from.
    uint64_t chunk_reads = 0;
    uint64_t remote_chunk_fetches = 0;
    uint64_t remote_chunk_bytes = 0;
    // Cross-node dedup: a node registered a chunk some other node already
    // held (the bytes were not stored twice).
    uint64_t xnode_dedup_chunks = 0;
    uint64_t dir_chunks = 0;  // live directory entries
    // Replica-load census: reads served per node (the striping bound).
    std::vector<uint64_t> node_chunk_reads;
    std::vector<uint64_t> node_store_bytes;  // physical bytes per node

    // Largest per-node share of chunk reads, in [0,1]; 0 before any read.
    double max_read_share() const;
  };

  explicit CacheFabric(Options opts);
  ~CacheFabric() override;

  // --- KVStore: routed to the context's home node --------------------------
  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override;
  void PutBatch(const std::string& context_id,
                std::span<const ChunkView> chunks) override;
  std::vector<bool> PreStoreCoverage(
      const std::string& context_id, size_t num_chunks,
      std::span<const int32_t> level_ids) const override;
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override;
  bool ContainsContext(const std::string& context_id) const override;
  void EraseContext(const std::string& context_id) override;
  uint64_t TotalBytes() const override;  // physical bytes across all nodes
  uint64_t ContextBytes(const std::string& context_id) const override;

  // --- CacheTier: routed to the home node, remote-classified ---------------
  // Forwards to the home node's tier, then sets TierLookup::any_remote when
  // the covered bytes will cross the interconnect (front != home, or any
  // covered chunk was fetched from a peer replica: LookupChunk flags it and
  // the prefix layer ORs the flag over the covered chunks).
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
  const PrefixCache* prefix() const override;

  // Routing (deterministic; exposed so tests and benches can predict
  // placement without serving traffic).
  uint32_t HomeNode(const std::string& context_id) const;
  uint32_t FrontNode(const std::string& context_id) const;

  const HashRing& ring() const { return ring_; }
  const Options& options() const { return opts_; }
  size_t num_nodes() const { return nodes_.size(); }

  Stats stats() const;

 private:
  class NodeView;  // per-node inner tier: local for raw ids, fabric for cas-
  friend class NodeView;

  struct Node {
    std::shared_ptr<CacheTier> store;  // physical local store (sharded/tiered)
    std::shared_ptr<CacheTier> tier;   // serving tier (prefix layer or store)
  };

  struct DirEntry {
    std::vector<uint32_t> owners;  // replica set, ring order (primary first)
    uint64_t holders = 0;          // bitmask of nodes referencing the chunk
    // The chunk's index in every context that references it (a content
    // address covers its placement): the replica schedule's fetch slot.
    uint32_t chunk_index = 0;
  };

  // Chunk ops called by NodeViews (cas- ids only).
  void StoreChunk(uint32_t from_node, const std::string& cas_id,
                  std::span<const ChunkView> chunks);
  void PutChunkRaw(uint32_t from_node, const ChunkKey& key,
                   std::span<const uint8_t> bytes);
  std::optional<std::vector<uint8_t>> ReadChunk(uint32_t reader_node,
                                                const ChunkKey& key) const;
  TierLookup LookupChunk(uint32_t reader_node, const std::string& cas_id,
                         double t_s);
  bool ChunkPresent(const std::string& cas_id) const;
  void DerefChunk(uint32_t from_node, const std::string& cas_id);
  void PinChunk(const std::string& cas_id);
  void UnpinChunk(const std::string& cas_id);
  void TouchChunk(const std::string& cas_id, double t_s);
  uint64_t ChunkBytes(const std::string& cas_id) const;

  // A copy of the chunk's directory entry (no owners when it is unknown).
  DirEntry EntryOf(const std::string& cas_id) const;
  // Count one chunk read served by `owner` on behalf of `reader_node`;
  // refreshes the replica-load gauge.
  void NoteChunkRead(uint32_t owner, uint32_t reader_node,
                     uint64_t bytes) const;

  Options opts_;
  HashRing ring_;
  std::vector<Node> nodes_;

  // Guards only the chunk directory; per-node stores have their own locks.
  mutable Mutex dir_mu_;
  std::unordered_map<std::string, DirEntry> dir_ CG_GUARDED_BY(dir_mu_);

  mutable std::atomic<uint64_t> local_hits_{0};
  mutable std::atomic<uint64_t> remote_hits_{0};
  mutable std::atomic<uint64_t> prefix_hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> chunk_reads_{0};
  mutable std::atomic<uint64_t> remote_chunk_fetches_{0};
  mutable std::atomic<uint64_t> remote_chunk_bytes_{0};
  mutable std::atomic<uint64_t> xnode_dedup_chunks_{0};
  mutable std::unique_ptr<std::atomic<uint64_t>[]> node_chunk_reads_;
};

}  // namespace cachegen
