#include "storage/sharded_kv_store.h"

#include <algorithm>
#include <stdexcept>

namespace cachegen {

namespace {

// The one step where the two PutBatch forms differ: a view is copied into
// the backend, an owned buffer is handed to it. Returns the chunk's size.
uint64_t StoreChunk(KVStore& backend, const ChunkView& chunk) {
  backend.Put(chunk.first, chunk.second);
  return chunk.second.size();
}

uint64_t StoreChunk(KVStore& backend, OwnedChunk& chunk) {
  const uint64_t size = chunk.second.size();
  backend.Insert(chunk.first, std::move(chunk.second));
  return size;
}

}  // namespace

ShardedKVStore::ShardedKVStore(Options opts, BackendFactory factory,
                               EvictionSink sink)
    : opts_(opts), eviction_sink_(std::move(sink)) {
  if (opts_.num_shards == 0) throw std::invalid_argument("ShardedKVStore: 0 shards");
  shard_capacity_ = opts_.capacity_bytes == 0
                        ? 0
                        : std::max<uint64_t>(1, opts_.capacity_bytes / opts_.num_shards);
  shards_.reserve(opts_.num_shards);
  for (size_t i = 0; i < opts_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    {
      // Uncontended (the shard is not yet published); taken so the guarded
      // write is visible to the thread-safety analysis.
      MutexLock lock(shard->mu);
      shard->backend = factory ? factory(i) : std::make_unique<MemoryKVStore>();
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedKVStore::Shard& ShardedKVStore::ShardFor(const std::string& context_id) {
  return *shards_[Fnv1a64(context_id) % shards_.size()];
}

const ShardedKVStore::Shard& ShardedKVStore::ShardFor(
    const std::string& context_id) const {
  return *shards_[Fnv1a64(context_id) % shards_.size()];
}

void ShardedKVStore::TouchLocked(ContextMeta& meta, double t_s) {
  meta.last_touch_s = std::max(meta.last_touch_s, t_s);
}

void ShardedKVStore::EnforceCapacityLocked(Shard& shard, const std::string* keep) {
  if (shard_capacity_ == 0) return;
  // A shard never evicts its last context: a single context larger than the
  // per-shard slice soft-overflows instead of being evicted by its own
  // write-back's Unpin, which would otherwise turn every future request for
  // it into a permanent re-prefill/re-encode/re-evict cycle.
  while (shard.bytes > shard_capacity_ && shard.contexts.size() > 1) {
    const std::string* victim = nullptr;
    const ContextMeta* victim_meta = nullptr;
    for (const auto& [id, meta] : shard.contexts) {
      if ((keep && id == *keep) || meta.pins > 0) continue;
      // Tie-break equal touch instants by id: deterministic under
      // concurrency, unlike a wall-clock-ordered sequence counter.
      if (!victim || meta.last_touch_s < victim_meta->last_touch_s ||
          (meta.last_touch_s == victim_meta->last_touch_s && id < *victim)) {
        victim = &id;
        victim_meta = &meta;
      }
    }
    if (!victim) return;  // everything left is pinned or the context being written
    const uint64_t freed = victim_meta->bytes;
    // Demotion hand-off: take the victim's bitstreams before the context is
    // erased. For the default backend Take moves each buffer out, so the
    // sink receives the very buffers the store held; the sink contract is
    // enqueue-only, so the shard lock is never held across disk I/O. If any
    // chunk cannot be read back (a failing file backend), the demotion is
    // abandoned — handing a silently incomplete context to the cold tier
    // would resurface later as a corrupt promotion, far from the cause —
    // and the eviction proceeds as a plain erase.
    bool demote = false;
    EvictedContext evicted;
    if (eviction_sink_) {
      evicted.context_id = *victim;
      evicted.last_touch_s = victim_meta->last_touch_s;
      evicted.bytes = freed;
      evicted.chunks.reserve(victim_meta->chunk_bytes.size());
      // Nothing to preserve for a chunkless placeholder.
      demote = !victim_meta->chunk_bytes.empty();
      for (const auto& [chunk_id, size] : victim_meta->chunk_bytes) {
        ChunkKey key{*victim, chunk_id.first, chunk_id.second};
        auto bytes = shard.backend->Take(key);
        if (!bytes) {
          demote = false;
          break;
        }
        evicted.chunks.emplace_back(std::move(key), std::move(*bytes));
      }
    }
    shard.backend->EraseContext(*victim);
    shard.bytes -= freed;
    shard.contexts.erase(*victim);
    if (demote) eviction_sink_(std::move(evicted));
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evicted_bytes_.fetch_add(freed, std::memory_order_relaxed);
  }
}

void ShardedKVStore::Put(const ChunkKey& key, std::span<const uint8_t> bytes) {
  const ChunkView one{key, bytes};
  PutBatch(key.context_id, std::span<const ChunkView>(&one, 1));
}

void ShardedKVStore::PutBatch(const std::string& context_id,
                              std::span<const ChunkView> chunks) {
  PutBatchImpl(context_id, chunks);
}

void ShardedKVStore::PutBatch(const std::string& context_id,
                              std::vector<OwnedChunk> chunks) {
  PutBatchImpl(context_id, std::span<OwnedChunk>(chunks));
}

template <typename Chunk>
void ShardedKVStore::PutBatchImpl(const std::string& context_id,
                                  std::span<Chunk> chunks) {
  Shard& shard = ShardFor(context_id);
  MutexLock lock(shard.mu);
  const auto [ctx_it, inserted] = shard.contexts.try_emplace(context_id);
  ContextMeta& meta = ctx_it->second;
  const bool was_absent = meta.chunk_bytes.empty();
  try {
    for (Chunk& chunk : chunks) {
      const ChunkKey& key = chunk.first;
      if (key.context_id != context_id) {
        throw std::invalid_argument(
            "ShardedKVStore::PutBatch: key names a different context");
      }
      const auto chunk_id = std::make_pair(key.chunk_index, key.level_id);
      const auto it = meta.chunk_bytes.find(chunk_id);
      const uint64_t old_size = it == meta.chunk_bytes.end() ? 0 : it->second;
      const uint64_t size = StoreChunk(*shard.backend, chunk);
      meta.chunk_bytes[chunk_id] = static_cast<uint32_t>(size);
      meta.bytes += size - old_size;
      shard.bytes += size - old_size;
    }
  } catch (...) {
    // A previously-absent context never becomes visible half-populated
    // (LookupAndPin is serialized against us by the shard lock): undo the
    // partial insert entirely. Metadata is cleared FIRST and the backend
    // erase may itself fail (same sick disk) — stray backend files are
    // merely orphaned bytes, while stray metadata would be a half-written
    // context reported as a hit. A concurrently pinned placeholder survives
    // pin-only — invisible to lookups, dropped on the final Unpin. A
    // failing OVERWRITE keeps the chunks that landed, with consistent
    // accounting.
    if (was_absent && !meta.chunk_bytes.empty()) {
      shard.bytes -= meta.bytes;
      meta.bytes = 0;
      meta.chunk_bytes.clear();
      try {
        shard.backend->EraseContext(context_id);
      } catch (...) {
      }
    }
    if (inserted && meta.chunk_bytes.empty() && meta.pins == 0) {
      shard.contexts.erase(ctx_it);
    }
    throw;
  }
  // No recency update here: PutBatch has no virtual-time source. Writers
  // stamp recency via Touch()/LookupAndPin() with cluster time.
  EnforceCapacityLocked(shard, &context_id);
}

std::optional<std::vector<uint8_t>> ShardedKVStore::Get(const ChunkKey& key) const {
  const Shard& shard = ShardFor(key.context_id);
  MutexLock lock(shard.mu);
  return shard.backend->Get(key);
}

bool ShardedKVStore::ContainsContext(const std::string& context_id) const {
  const Shard& shard = ShardFor(context_id);
  MutexLock lock(shard.mu);
  const auto it = shard.contexts.find(context_id);
  // A pin-only placeholder (no chunks written yet) does not count as present.
  return it != shard.contexts.end() && !it->second.chunk_bytes.empty();
}

void ShardedKVStore::EraseContext(const std::string& context_id) {
  Shard& shard = ShardFor(context_id);
  MutexLock lock(shard.mu);
  const auto it = shard.contexts.find(context_id);
  if (it == shard.contexts.end()) return;
  // Same contract as eviction: a pinned context is never removed out from
  // under an in-flight request. The erase is simply refused; callers that
  // must reclaim it retry after the pin holder finishes.
  if (it->second.pins > 0) return;
  shard.backend->EraseContext(context_id);
  shard.bytes -= it->second.bytes;
  shard.contexts.erase(it);
}

uint64_t ShardedKVStore::TotalBytes() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    n += shard->bytes;
  }
  return n;
}

uint64_t ShardedKVStore::ContextBytes(const std::string& context_id) const {
  const Shard& shard = ShardFor(context_id);
  MutexLock lock(shard.mu);
  const auto it = shard.contexts.find(context_id);
  return it == shard.contexts.end() ? 0 : it->second.bytes;
}

TierLookup ShardedKVStore::LookupAndPin(const std::string& context_id,
                                        const ContextSpec& spec, double t_s) {
  TierLookup out;
  Shard& shard = ShardFor(context_id);
  MutexLock lock(shard.mu);
  const auto it = shard.contexts.find(context_id);
  if (it == shard.contexts.end() || it->second.chunk_bytes.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  TouchLocked(it->second, t_s);
  ++it->second.pins;
  out.tier = KVTier::kHot;
  out.covered_tokens = spec.num_tokens;
  out.pinned = true;
  return out;
}

void ShardedKVStore::Touch(const std::string& context_id, double t_s) {
  Shard& shard = ShardFor(context_id);
  MutexLock lock(shard.mu);
  const auto it = shard.contexts.find(context_id);
  if (it != shard.contexts.end()) TouchLocked(it->second, t_s);
}

void ShardedKVStore::Pin(const std::string& context_id) {
  Shard& shard = ShardFor(context_id);
  MutexLock lock(shard.mu);
  ++shard.contexts[context_id].pins;  // creates the meta entry if absent
}

void ShardedKVStore::Unpin(const std::string& context_id) {
  Shard& shard = ShardFor(context_id);
  MutexLock lock(shard.mu);
  const auto it = shard.contexts.find(context_id);
  if (it == shard.contexts.end()) return;
  if (it->second.pins > 0) --it->second.pins;
  // A pin-only placeholder (Pin on an id that was never written) is dropped
  // once unpinned so it cannot shadow ContainsContext.
  if (it->second.pins == 0 && it->second.chunk_bytes.empty()) {
    shard.contexts.erase(it);
  }
  // Pins can force a shard over capacity (nothing evictable while an
  // in-flight context is written); re-enforce once the pin drops.
  EnforceCapacityLocked(shard, nullptr);
}

ShardedKVStore::Stats ShardedKVStore::stats() const {
  Stats s;
  s.context_hits = hits_.load(std::memory_order_relaxed);
  s.context_misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.evicted_bytes = evicted_bytes_.load(std::memory_order_relaxed);
  s.stored_bytes = TotalBytes();
  return s;
}

}  // namespace cachegen
