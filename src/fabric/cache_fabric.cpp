#include "fabric/cache_fabric.h"

#include <algorithm>
#include <stdexcept>

#include "fabric/replica_schedule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/tiered_kv_store.h"

namespace cachegen {

namespace {

// Front-end (load-balancer) routing hash seed — independent of placement by
// construction, so ~1/N of full hits land on their home node.
constexpr uint64_t kRouteSeed = 0x10adba1a4ce00001ull;

bool IsCasId(const std::string& id) { return id.rfind("cas-", 0) == 0; }

// Reader identity for the CRT replica schedule: the request id when a
// request scope is live (every served lookup), else a stable hash of the
// chunk id so background readers still get a deterministic schedule.
uint64_t ReaderFor(const std::string& cas_id) {
  const uint64_t rid = obs::ScopedRequestId::Current();
  return rid != 0 ? rid : Fnv1a64(cas_id);
}

}  // namespace

// Per-node inner tier handed to that node's PrefixCache: raw context ids
// stay on the node's local store (the radix index and its contexts are
// node-local by design), while content-addressed cas- chunks route through
// the fabric's global chunk directory — striped owners, peer fetch, and
// cross-node refcounting via the holders mask.
class CacheFabric::NodeView final : public KVStore, public CacheTier {
 public:
  NodeView(CacheFabric* fab, uint32_t node) : fab_(fab), node_(node) {}

  // --- KVStore -------------------------------------------------------------
  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override {
    if (IsCasId(key.context_id)) {
      fab_->PutChunkRaw(node_, key, bytes);
    } else {
      local_kv().Put(key, bytes);
    }
  }
  void PutBatch(const std::string& context_id,
                std::span<const ChunkView> chunks) override {
    if (IsCasId(context_id)) {
      fab_->StoreChunk(node_, context_id, chunks);
    } else {
      local_kv().PutBatch(context_id, chunks);
    }
  }
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override {
    if (IsCasId(key.context_id)) return fab_->ReadChunk(node_, key);
    return local_kv().Get(key);
  }
  bool ContainsContext(const std::string& context_id) const override {
    if (IsCasId(context_id)) return fab_->ChunkPresent(context_id);
    return local_kv().ContainsContext(context_id);
  }
  void EraseContext(const std::string& context_id) override {
    if (IsCasId(context_id)) {
      fab_->DerefChunk(node_, context_id);
    } else {
      local_kv().EraseContext(context_id);
    }
  }
  uint64_t TotalBytes() const override { return local_kv().TotalBytes(); }
  uint64_t ContextBytes(const std::string& context_id) const override {
    if (IsCasId(context_id)) return fab_->ChunkBytes(context_id);
    return local_kv().ContextBytes(context_id);
  }

  // --- CacheTier -----------------------------------------------------------
  TierLookup LookupAndPin(const std::string& context_id, const ContextSpec& spec,
                          double t_s) override {
    if (IsCasId(context_id)) return fab_->LookupChunk(node_, context_id, t_s);
    return local_tier().LookupAndPin(context_id, spec, t_s);
  }
  void Pin(const std::string& context_id) override {
    if (IsCasId(context_id)) {
      fab_->PinChunk(context_id);
    } else {
      local_tier().Pin(context_id);
    }
  }
  void Unpin(const std::string& context_id) override {
    if (IsCasId(context_id)) {
      fab_->UnpinChunk(context_id);
    } else {
      local_tier().Unpin(context_id);
    }
  }
  void Touch(const std::string& context_id, double t_s) override {
    if (IsCasId(context_id)) {
      fab_->TouchChunk(context_id, t_s);
    } else {
      local_tier().Touch(context_id, t_s);
    }
  }
  void Flush() override { local_tier().Flush(); }
  KVStore& kv() override { return *this; }

 private:
  CacheTier& local_tier() const { return *fab_->nodes_[node_].store; }
  KVStore& local_kv() const { return fab_->nodes_[node_].store->kv(); }

  CacheFabric* fab_;
  uint32_t node_;
};

double CacheFabric::Stats::max_read_share() const {
  if (chunk_reads == 0) return 0.0;
  uint64_t mx = 0;
  for (uint64_t r : node_chunk_reads) mx = std::max(mx, r);
  return static_cast<double>(mx) / static_cast<double>(chunk_reads);
}

CacheFabric::CacheFabric(Options opts)
    : opts_(std::move(opts)), ring_(opts_.num_nodes) {
  if (opts_.num_nodes == 0 || opts_.num_nodes > 64) {
    throw std::invalid_argument(
        "CacheFabric: num_nodes must be in [1, 64] (holders are a 64-bit "
        "mask)");
  }
  if (opts_.chunk_replicas == 0) {
    throw std::invalid_argument("CacheFabric: chunk_replicas must be >= 1");
  }
  const size_t n = opts_.num_nodes;
  node_chunk_reads_ = std::make_unique<std::atomic<uint64_t>[]>(n);
  for (size_t i = 0; i < n; ++i) node_chunk_reads_[i].store(0);
  nodes_.reserve(n);
  auto& reg = obs::MetricsRegistry::Instance();
  for (size_t i = 0; i < n; ++i) {
    Node node;
    if (!opts_.cold_root.empty()) {
      TieredKVStore::Options t;
      t.hot = opts_.node_store;
      t.cold_root = opts_.cold_root / ("node" + std::to_string(i));
      node.store = std::make_shared<TieredKVStore>(t);
    } else {
      node.store = std::make_shared<ShardedKVStore>(opts_.node_store);
    }
    if (opts_.prefix) {
      node.tier = std::make_shared<PrefixCache>(
          std::make_shared<NodeView>(this, static_cast<uint32_t>(i)),
          opts_.prefix_opts);
    } else {
      node.tier = node.store;
    }
    const std::string prefix = "fabric.node" + std::to_string(i);
    node.hits = &reg.GetCounter(prefix + ".hits");
    node.remote = &reg.GetCounter(prefix + ".remote_hits");
    node.misses = &reg.GetCounter(prefix + ".misses");
    nodes_.push_back(std::move(node));
  }
}

CacheFabric::~CacheFabric() = default;

uint32_t CacheFabric::HomeNode(const std::string& context_id) const {
  return ring_.PrimaryNode(context_id);
}

uint32_t CacheFabric::FrontNode(const std::string& context_id) const {
  return static_cast<uint32_t>(HashRing::HashKey(context_id, kRouteSeed) %
                               nodes_.size());
}

// --- KVStore: home-node routing ---------------------------------------------

void CacheFabric::Put(const ChunkKey& key, std::span<const uint8_t> bytes) {
  nodes_[HomeNode(key.context_id)].tier->kv().Put(key, bytes);
}

void CacheFabric::PutBatch(const std::string& context_id,
                           std::span<const ChunkView> chunks) {
  nodes_[HomeNode(context_id)].tier->kv().PutBatch(context_id, chunks);
}

std::vector<bool> CacheFabric::PreStoreCoverage(
    const std::string& context_id, size_t num_chunks,
    std::span<const int32_t> level_ids) const {
  return nodes_[HomeNode(context_id)].tier->kv().PreStoreCoverage(
      context_id, num_chunks, level_ids);
}

std::optional<std::vector<uint8_t>> CacheFabric::Get(const ChunkKey& key) const {
  return nodes_[HomeNode(key.context_id)].tier->kv().Get(key);
}

bool CacheFabric::ContainsContext(const std::string& context_id) const {
  return nodes_[HomeNode(context_id)].tier->kv().ContainsContext(context_id);
}

void CacheFabric::EraseContext(const std::string& context_id) {
  nodes_[HomeNode(context_id)].tier->kv().EraseContext(context_id);
}

uint64_t CacheFabric::TotalBytes() const {
  // Physical bytes across all node stores (replicated cas chunks count once
  // per replica — this is what the machines actually hold).
  uint64_t total = 0;
  for (const Node& node : nodes_) total += node.store->kv().TotalBytes();
  return total;
}

uint64_t CacheFabric::ContextBytes(const std::string& context_id) const {
  return nodes_[HomeNode(context_id)].tier->kv().ContextBytes(context_id);
}

// --- CacheTier: home-node routing + remote classification --------------------

TierLookup CacheFabric::LookupAndPin(const std::string& context_id,
                                     const ContextSpec& spec, double t_s) {
  const uint32_t home = HomeNode(context_id);
  const uint32_t front = FrontNode(context_id);
  TierLookup look = nodes_[home].tier->LookupAndPin(context_id, spec, t_s);
  // Remote when any covered byte must cross the interconnect to reach the
  // front node: the request landed away from its home, or the home node's
  // prefix pulled chunks from peer replicas (LookupChunk flags each one).
  const bool covered = look.hit() || look.covered_chunks > 0;
  look.any_remote = covered && (front != home || look.any_remote);
  look.home_node = static_cast<int>(home);

  CG_METRIC_COUNT("fabric.lookups", 1);
  if (look.hit()) {
    if (look.any_remote) {
      remote_hits_.fetch_add(1, std::memory_order_relaxed);
      nodes_[home].remote->Add(1);
      CG_METRIC_COUNT("fabric.hits.remote", 1);
    } else {
      local_hits_.fetch_add(1, std::memory_order_relaxed);
      nodes_[home].hits->Add(1);
      CG_METRIC_COUNT("fabric.hits.local", 1);
    }
  } else if (look.prefix_hit()) {
    prefix_hits_.fetch_add(1, std::memory_order_relaxed);
    nodes_[home].hits->Add(1);
    CG_METRIC_COUNT("fabric.hits.prefix", 1);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    nodes_[home].misses->Add(1);
    CG_METRIC_COUNT("fabric.misses", 1);
  }
  const uint64_t rid = obs::ScopedRequestId::Current();
  if (look.any_remote && rid != 0) {
    // The marker ci/check_trace.py keys on: every track carrying one must
    // also show the serving layer's fabric.remote_fetch pricing span.
    CG_TRACE_VINSTANT("fabric", "remote_hit", rid, t_s, "home",
                      static_cast<double>(home));
  }
  return look;
}

void CacheFabric::Pin(const std::string& context_id) {
  nodes_[HomeNode(context_id)].tier->Pin(context_id);
}

void CacheFabric::Unpin(const std::string& context_id) {
  nodes_[HomeNode(context_id)].tier->Unpin(context_id);
}

void CacheFabric::Touch(const std::string& context_id, double t_s) {
  nodes_[HomeNode(context_id)].tier->Touch(context_id, t_s);
}

void CacheFabric::BeginStore(const std::string& context_id,
                             const ContextSpec& spec) {
  nodes_[HomeNode(context_id)].tier->BeginStore(context_id, spec);
}

void CacheFabric::AbortStore(const std::string& context_id) {
  nodes_[HomeNode(context_id)].tier->AbortStore(context_id);
}

void CacheFabric::Flush() {
  for (Node& node : nodes_) node.tier->Flush();
}

const PrefixCache* CacheFabric::prefix() const {
  return nodes_[0].tier->prefix();
}

// --- chunk directory + peer fetch --------------------------------------------

CacheFabric::DirEntry CacheFabric::EntryOf(const std::string& cas_id) const {
  MutexLock lk(dir_mu_);
  auto it = dir_.find(cas_id);
  return it != dir_.end() ? it->second : DirEntry{};
}

void CacheFabric::NoteChunkRead(uint32_t owner, uint32_t reader_node,
                                uint64_t bytes) const {
  chunk_reads_.fetch_add(1, std::memory_order_relaxed);
  node_chunk_reads_[owner].fetch_add(1, std::memory_order_relaxed);
  CG_METRIC_COUNT("fabric.chunk_reads", 1);
  if (owner != reader_node) {
    remote_chunk_fetches_.fetch_add(1, std::memory_order_relaxed);
    remote_chunk_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    CG_METRIC_COUNT("fabric.chunk_reads.remote", 1);
  }
  const uint64_t total = chunk_reads_.load(std::memory_order_relaxed);
  uint64_t mx = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    mx = std::max(mx, node_chunk_reads_[i].load(std::memory_order_relaxed));
  }
  if (total > 0) {
    CG_METRIC_GAUGE_SET("fabric.replica.max_read_share_pct",
                        (100 * mx) / total);
  }
}

void CacheFabric::StoreChunk(uint32_t from_node, const std::string& cas_id,
                             std::span<const ChunkView> chunks) {
  std::vector<uint32_t> owners;
  bool fresh = false;
  bool was_holder = false;
  {
    MutexLock lk(dir_mu_);
    auto [it, inserted] = dir_.try_emplace(cas_id);
    fresh = inserted;
    if (inserted) {
      it->second.owners = ring_.ReplicaNodes(cas_id, opts_.chunk_replicas);
      if (!chunks.empty()) it->second.chunk_index = chunks[0].first.chunk_index;
    }
    was_holder = (it->second.holders >> from_node) & 1;
    it->second.holders |= uint64_t{1} << from_node;
    owners = it->second.owners;
  }
  // Write (or refresh) the bytes on every owner replica. A re-store of an
  // existing address is a same-content overwrite — possibly adding encoding
  // levels the first writer lacked — so physical bytes stay deduped however
  // many holder nodes reference the chunk.
  for (uint32_t o : owners) nodes_[o].store->kv().PutBatch(cas_id, chunks);
  CG_METRIC_COUNT("fabric.chunk_stores", 1);
  if (!fresh && !was_holder) {
    xnode_dedup_chunks_.fetch_add(1, std::memory_order_relaxed);
    CG_METRIC_COUNT("fabric.chunk_dedup_xnode", 1);
  }
}

void CacheFabric::PutChunkRaw(uint32_t from_node, const ChunkKey& key,
                              std::span<const uint8_t> bytes) {
  const ChunkView view{key, bytes};
  StoreChunk(from_node, key.context_id, std::span<const ChunkView>(&view, 1));
}

std::optional<std::vector<uint8_t>> CacheFabric::ReadChunk(
    uint32_t reader_node, const ChunkKey& key) const {
  const std::vector<uint32_t> owners = EntryOf(key.context_id).owners;
  if (owners.empty()) {
    // Unknown to the directory (store adopted out-of-band): local only.
    return nodes_[reader_node].store->kv().Get(key);
  }
  const uint32_t start =
      ReplicaChoice(ReaderFor(key.context_id), key.chunk_index,
                    static_cast<uint32_t>(owners.size()));
  // Schedule-chosen replica first; on a lost replica fall through the rest
  // of the stripe before reporting the chunk gone.
  for (size_t k = 0; k < owners.size(); ++k) {
    const uint32_t owner = owners[(start + k) % owners.size()];
    auto bytes = nodes_[owner].store->kv().Get(key);
    if (bytes.has_value()) {
      NoteChunkRead(owner, reader_node, bytes->size());
      return bytes;
    }
  }
  return std::nullopt;
}

TierLookup CacheFabric::LookupChunk(uint32_t reader_node,
                                    const std::string& cas_id, double t_s) {
  const DirEntry entry = EntryOf(cas_id);
  const std::vector<uint32_t>& owners = entry.owners;
  if (owners.empty()) {
    return nodes_[reader_node].store->LookupAndPin(cas_id, ContextSpec{}, t_s);
  }
  const uint32_t start =
      ReplicaChoice(ReaderFor(cas_id), entry.chunk_index,
                    static_cast<uint32_t>(owners.size()));
  TierLookup look;
  for (size_t k = 0; k < owners.size(); ++k) {
    const uint32_t owner = owners[(start + k) % owners.size()];
    look = nodes_[owner].store->LookupAndPin(cas_id, ContextSpec{}, t_s);
    if (!look.hit()) continue;  // lost replica: no pin taken, try the next
    if (look.pinned) {
      // Pin the whole stripe symmetrically: the eventual Unpin (UnpinChunk)
      // releases every owner, so it must not matter which replica served.
      for (uint32_t o : owners) {
        if (o != owner) nodes_[o].store->Pin(cas_id);
      }
    }
    const uint64_t bytes = owner != reader_node
                               ? nodes_[owner].store->kv().ContextBytes(cas_id)
                               : 0;
    NoteChunkRead(owner, reader_node, bytes);
    look.any_remote = owner != reader_node;
    return look;
  }
  return look;  // every replica lost the bytes: a miss
}

bool CacheFabric::ChunkPresent(const std::string& cas_id) const {
  for (uint32_t o : EntryOf(cas_id).owners) {
    if (nodes_[o].store->kv().ContainsContext(cas_id)) return true;
  }
  return false;
}

void CacheFabric::DerefChunk(uint32_t from_node, const std::string& cas_id) {
  std::vector<uint32_t> owners;
  bool dead = false;
  {
    MutexLock lk(dir_mu_);
    auto it = dir_.find(cas_id);
    if (it == dir_.end()) {
      // Not fabric-managed; treat as a plain local erase.
      owners.push_back(from_node);
      dead = true;
    } else {
      it->second.holders &= ~(uint64_t{1} << from_node);
      if (it->second.holders == 0) {
        dead = true;
        owners = std::move(it->second.owners);
        dir_.erase(it);
      }
    }
  }
  // Bytes die only when the LAST holder node dereferences the chunk — the
  // cross-node analogue of the prefix layer's refcount discipline.
  if (dead) {
    for (uint32_t o : owners) nodes_[o].store->kv().EraseContext(cas_id);
  }
}

void CacheFabric::PinChunk(const std::string& cas_id) {
  for (uint32_t o : EntryOf(cas_id).owners) nodes_[o].store->Pin(cas_id);
}

void CacheFabric::UnpinChunk(const std::string& cas_id) {
  for (uint32_t o : EntryOf(cas_id).owners) nodes_[o].store->Unpin(cas_id);
}

void CacheFabric::TouchChunk(const std::string& cas_id, double t_s) {
  for (uint32_t o : EntryOf(cas_id).owners) nodes_[o].store->Touch(cas_id, t_s);
}

uint64_t CacheFabric::ChunkBytes(const std::string& cas_id) const {
  for (uint32_t o : EntryOf(cas_id).owners) {
    const uint64_t b = nodes_[o].store->kv().ContextBytes(cas_id);
    if (b > 0) return b;
  }
  return 0;
}

CacheFabric::Stats CacheFabric::stats() const {
  Stats s;
  s.local_hits = local_hits_.load(std::memory_order_relaxed);
  s.remote_hits = remote_hits_.load(std::memory_order_relaxed);
  s.prefix_hits = prefix_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.chunk_reads = chunk_reads_.load(std::memory_order_relaxed);
  s.remote_chunk_fetches =
      remote_chunk_fetches_.load(std::memory_order_relaxed);
  s.remote_chunk_bytes = remote_chunk_bytes_.load(std::memory_order_relaxed);
  s.xnode_dedup_chunks = xnode_dedup_chunks_.load(std::memory_order_relaxed);
  {
    MutexLock lk(dir_mu_);
    s.dir_chunks = dir_.size();
  }
  s.node_chunk_reads.reserve(nodes_.size());
  s.node_store_bytes.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    s.node_chunk_reads.push_back(
        node_chunk_reads_[i].load(std::memory_order_relaxed));
    s.node_store_bytes.push_back(nodes_[i].store->kv().TotalBytes());
  }
  return s;
}

}  // namespace cachegen
