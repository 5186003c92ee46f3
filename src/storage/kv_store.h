// KV cache storage (§6 "KV cache management"): the storage-server side of
// CacheGen. store_kv computes, chunks, and encodes a context's KV cache at
// every encoding level, then stores a {(chunk_id, level) -> bitstream}
// dictionary; get_kv returns a chunk's bitstream for the level the streamer
// selected.
//
// Two backends: an in-memory map (unit tests, simulations) and a
// directory-backed store (one file per chunk/level) matching the paper's
// dedicated-storage-server deployment.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace cachegen {

// FNV-1a 64-bit hash, independent of std::hash so shard placement is stable
// across platforms and runs. NOT collision-resistant — never use it where an
// adversarial collision matters (id mangling uses SHA-256, below).
uint64_t Fnv1a64(const std::string& s);

// Map an arbitrary context id onto a single safe directory-name component.
// Ids made of [A-Za-z0-9._-] (other than "." / "..") pass through unchanged;
// anything else — path separators, "..", control bytes, over-long ids — is
// replaced by a cleaned prefix plus '%' plus a truncated SHA-256 digest of
// the original id. Since '%' never passes through, the mangled namespace is
// disjoint from the pass-through namespace, and no id can escape the store
// root. The digest is cryptographic (128 bits of SHA-256), so an adversarial
// tenant cannot engineer a mangled-id collision to poison another tenant's
// cache entry. Mangling is one-way: restart recovery maps directories back
// to ids through the cold tier's persistent manifest.
std::string SanitizeContextId(const std::string& context_id);

struct ChunkKey {
  std::string context_id;
  uint32_t chunk_index = 0;
  int32_t level_id = 0;

  auto operator<=>(const ChunkKey&) const = default;
};

// One chunk handed to KVStore::PutBatch: a key plus a view of its serialized
// bytes (the caller keeps the bytes alive for the duration of the call).
using ChunkView = std::pair<ChunkKey, std::span<const uint8_t>>;

// One chunk together with the buffer that holds its bytes: the unit a
// bitstream crosses a tier boundary in (eviction hand-off, demotion buffer,
// promotion), moved rather than copied.
using OwnedChunk = std::pair<ChunkKey, std::vector<uint8_t>>;

class KVStore {
 public:
  virtual ~KVStore() = default;

  virtual void Put(const ChunkKey& key, std::span<const uint8_t> bytes) = 0;

  // Store every chunk of one context (all keys must name `context_id`).
  // The base implementation is a plain Put loop; ShardedKVStore overrides it
  // to make the whole context visible atomically — Engine::StoreKV persists
  // through this so a concurrent lookup never hits a half-written context.
  virtual void PutBatch(const std::string& context_id,
                        std::span<const ChunkView> chunks);

  // Per-chunk dedup coverage of a context about to be stored: out[j] is true
  // when chunk j's encoded bytes — at EVERY level in `level_ids` — are
  // already present under content addressing, so Engine::StoreKV can skip
  // prefilling and encoding that chunk entirely and PutBatch will tolerate
  // its omission from the grid. Plain stores know no content addressing and
  // report nothing covered; only the prefix-aware layer overrides this (and
  // only for contexts it can address, i.e. announced or registered ones).
  virtual std::vector<bool> PreStoreCoverage(
      const std::string& context_id, size_t num_chunks,
      std::span<const int32_t> level_ids) const;

  virtual std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const = 0;
  virtual bool ContainsContext(const std::string& context_id) const = 0;
  virtual void EraseContext(const std::string& context_id) = 0;

  // Ownership-passing forms of Put and Get, so a tier hand-off moves a
  // bitstream instead of copying it. Insert stores `bytes` as Put would;
  // Take hands a stored chunk's bytes to a caller that erases the context
  // next, and may leave the chunk stored until that erase. The defaults
  // copy (Put over the bytes, Get); MemoryKVStore moves the buffer in and
  // out.
  virtual void Insert(const ChunkKey& key, std::vector<uint8_t>&& bytes);
  virtual std::optional<std::vector<uint8_t>> Take(const ChunkKey& key);

  // Total stored bytes (all levels) — the Fig. 14d storage-cost metric.
  virtual uint64_t TotalBytes() const = 0;
  virtual uint64_t ContextBytes(const std::string& context_id) const = 0;
};

class MemoryKVStore final : public KVStore {
 public:
  // A copy of `bytes` handed to Insert.
  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override;
  // Keeps the caller's buffer as the stored chunk.
  void Insert(const ChunkKey& key, std::vector<uint8_t>&& bytes) override;
  // Removes the chunk and returns its buffer.
  std::optional<std::vector<uint8_t>> Take(const ChunkKey& key) override;
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override;
  bool ContainsContext(const std::string& context_id) const override;
  void EraseContext(const std::string& context_id) override;
  uint64_t TotalBytes() const override;
  uint64_t ContextBytes(const std::string& context_id) const override;

 private:
  std::map<ChunkKey, std::vector<uint8_t>> data_;
};

class FileKVStore final : public KVStore {
 public:
  explicit FileKVStore(std::filesystem::path root);

  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override;
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override;
  bool ContainsContext(const std::string& context_id) const override;
  void EraseContext(const std::string& context_id) override;
  uint64_t TotalBytes() const override;
  uint64_t ContextBytes(const std::string& context_id) const override;

 private:
  std::filesystem::path DirFor(const std::string& context_id) const;
  std::filesystem::path PathFor(const ChunkKey& key) const;

  std::filesystem::path root_;
};

}  // namespace cachegen
