#include "storage/tiered_kv_store.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

namespace fs = std::filesystem;

namespace {
// Written into a context's cold directory after its last chunk committed.
// Each chunk file is atomic on its own (temp + rename), but only this marker
// makes the CONTEXT complete: restart adoption refuses directories without
// it, so a crash mid-persist can never resurrect a partial chunk set. Not a
// ".cgkv" file, so byte accounting and chunk parsing both ignore it.
constexpr const char kColdCompleteSentinel[] = "COMPLETE";

// Cold-tier manifest: one file at the root mapping each persisted context's
// DIRECTORY name back to its original id and LRU stamp, so restart adoption
// recovers '%'-mangled ids (which hash one way) and recency. Rewritten
// whole (temp + rename) once per Flush() that changed the cold tier — a
// crash between flushes loses at most the latest rewrite, and adoption
// degrades to the sentinel + round-trip rules for unlisted directories.
constexpr const char kColdManifestName[] = "MANIFEST";
constexpr const char kColdManifestHeader[] = "cachegen-cold-manifest-v1";

std::string HexEncode(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * s.size());
  for (unsigned char c : s) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

std::optional<std::string> HexDecode(const std::string& s) {
  if (s.size() % 2 != 0) return std::nullopt;
  std::string out;
  out.reserve(s.size() / 2);
  for (size_t i = 0; i < s.size(); i += 2) {
    const int hi = HexNibble(s[i]);
    const int lo = HexNibble(s[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

struct ManifestRow {
  std::string original_id;
  double last_touch_s = 0.0;
};

// Exact double round-trip: the LRU stamp is serialized as its bit pattern.
uint64_t DoubleBits(double d) {
  uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(d));
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// The stamp a MANIFEST row carries: exactly 16 hex digits that decode to a
// finite, non-negative double (what WriteManifestLocked emits for a
// virtual-time stamp). The file is outside input: a NaN would be unordered
// in the cold LRU, so a row with any other stamp is skipped like one with a
// bad id.
std::optional<double> ParseStamp(const std::string& hex) {
  if (hex.size() != 16) return std::nullopt;
  uint64_t bits = 0;
  for (const char c : hex) {
    const int v = HexNibble(c);
    if (v < 0) return std::nullopt;
    bits = (bits << 4) | static_cast<uint64_t>(v);
  }
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  if (!std::isfinite(d) || d < 0.0) return std::nullopt;
  return d;
}

std::map<std::string, ManifestRow> ReadColdManifest(
    const std::filesystem::path& root) {
  std::map<std::string, ManifestRow> rows;
  std::ifstream in(root / kColdManifestName);
  if (!in) return rows;
  std::string header;
  if (!std::getline(in, header) || header != kColdManifestHeader) return rows;
  std::string dir, hex_id, touch_hex;
  while (in >> dir >> hex_id >> touch_hex) {
    const auto id = HexDecode(hex_id);
    const auto touch = ParseStamp(touch_hex);
    // Corrupt row: skip, adoption falls back to the rules.
    if (!id || !touch) continue;
    rows[dir] = ManifestRow{*id, *touch};
  }
  return rows;
}

}  // namespace

TieredKVStore::TieredKVStore(Options opts,
                             ShardedKVStore::BackendFactory hot_factory)
    : opts_(std::move(opts)) {
  if (opts_.cold_root.empty()) {
    throw std::invalid_argument("TieredKVStore: cold_root is required");
  }
  hot_ = std::make_unique<ShardedKVStore>(
      opts_.hot, std::move(hot_factory),
      [this](ShardedKVStore::EvictedContext&& victim) {
        OnHotEviction(std::move(victim));
      });
  cold_backend_ = std::make_unique<FileKVStore>(opts_.cold_root);
  AdoptPersistedColdContexts();
}

TieredKVStore::~TieredKVStore() {
  // Persist what is still in RAM, so a restart adopts it.
  Flush();
}

void TieredKVStore::AdoptPersistedColdContexts() {
  if (!fs::exists(opts_.cold_root)) return;
  const std::map<std::string, ManifestRow> manifest =
      ReadColdManifest(opts_.cold_root);
  {
    MutexLock lock(cold_mu_);
    for (const auto& dir : fs::directory_iterator(opts_.cold_root)) {
      if (!dir.is_directory()) continue;
      // No completion sentinel: the writer died between chunk commits (or
      // before any). The subset must never be served; reclaim it now — the
      // constructor runs single-threaded, so inline I/O is fine.
      if (!fs::exists(dir.path() / kColdCompleteSentinel)) {
        std::error_code ec;
        fs::remove_all(dir.path(), ec);
        continue;
      }
      const std::string dir_name = dir.path().filename().string();
      // Recover the original id: the manifest is authoritative (it is the
      // only way back from a '%'-mangled name, and it carries the LRU
      // stamp), but only for a row whose id sanitizes to this directory —
      // any other row would register the bytes under an id whose reads
      // and erases go elsewhere. Other directories fall back to the
      // pass-through round-trip rule; names neither recovers are
      // unreachable forever — reclaim them rather than leaking dead bytes
      // against the budget.
      std::string id;
      double last_touch = 0.0;
      const auto mit = manifest.find(dir_name);
      if (mit != manifest.end() &&
          SanitizeContextId(mit->second.original_id) == dir_name) {
        id = mit->second.original_id;
        last_touch = mit->second.last_touch_s;
      } else if (SanitizeContextId(dir_name) == dir_name) {
        id = dir_name;
      } else {
        std::error_code ec;
        fs::remove_all(dir.path(), ec);
        continue;
      }
      ColdEntry entry;
      for (const auto& f : fs::directory_iterator(dir.path())) {
        if (!f.is_regular_file() || f.path().extension() != ".cgkv") continue;
        uint32_t chunk = 0;
        int32_t level = 0;
        if (std::sscanf(f.path().filename().string().c_str(),
                        "chunk%u_level%d.cgkv", &chunk, &level) != 2) {
          continue;
        }
        entry.chunk_bytes[{chunk, level}] =
            static_cast<uint32_t>(f.file_size());
        entry.bytes += f.file_size();
      }
      if (entry.chunk_bytes.empty()) continue;
      entry.persisted = true;
      entry.last_touch_s = last_touch;
      cold_bytes_ += entry.bytes;
      cold_.emplace(id, std::move(entry));
    }
    // The budget may have shrunk since the adopted bytes were written.
    EnforceColdCapacityLocked(nullptr);
  }
}

void TieredKVStore::WriteManifestLocked() {
  const fs::path final_path = opts_.cold_root / kColdManifestName;
  const fs::path tmp = opts_.cold_root / (std::string(kColdManifestName) + ".tmp");
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;  // best-effort: adoption degrades to the fallback rules
    out << kColdManifestHeader << '\n';
    for (const auto& [id, e] : cold_) {
      if (!e.persisted) continue;
      char bits[17];
      std::snprintf(bits, sizeof(bits), "%016llx",
                    static_cast<unsigned long long>(DoubleBits(e.last_touch_s)));
      out << SanitizeContextId(id) << ' ' << HexEncode(id) << ' ' << bits
          << '\n';
    }
    out.flush();
    out.close();
    if (out.fail()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) fs::remove(tmp, ec);
}

// --- demotion (hot -> cold) --------------------------------------------------

void TieredKVStore::OnHotEviction(ShardedKVStore::EvictedContext&& victim) {
  // Runs under the evicting shard's lock: register the manifest entry and
  // keep its bytes in RAM (lookups racing the eviction must see the context
  // as cold); Flush() writes them. Lock order is shard -> cold_mu_; nothing
  // here blocks on I/O.
  MutexLock lock(cold_mu_);
  const auto old = cold_.find(victim.context_id);
  if (old != cold_.end()) {
    // Replace an older incarnation. Same id means same immutable content
    // and chunk set, so Flush() simply overwrites the old files — no erase
    // needed.
    TakeColdLocked(old);
  }
  ColdEntry& entry = cold_[victim.context_id];
  entry.bytes = victim.bytes;
  entry.last_touch_s = victim.last_touch_s;
  for (const auto& [key, bytes] : victim.chunks) {
    entry.chunk_bytes[{key.chunk_index, key.level_id}] =
        static_cast<uint32_t>(bytes.size());
  }
  entry.buffer = std::move(victim.chunks);
  cold_bytes_ += entry.bytes;
  demotions_.fetch_add(1, std::memory_order_relaxed);
  demoted_bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
  CG_METRIC_COUNT("storage.demotions", 1);
  CG_TRACE_INSTANT("storage", "demote", "bytes",
                   static_cast<double>(entry.bytes));
  SetPendingLocked(pending_demotion_bytes_ + entry.bytes);
  EnforceColdCapacityLocked(&victim.context_id);
}

TieredKVStore::ColdEntry TieredKVStore::TakeColdLocked(ColdMap::iterator it) {
  ColdEntry entry = std::move(it->second);
  cold_.erase(it);
  cold_bytes_ -= entry.bytes;
  if (!entry.persisted) SetPendingLocked(pending_demotion_bytes_ - entry.bytes);
  return entry;
}

void TieredKVStore::SetPendingLocked(uint64_t bytes) {
  pending_demotion_bytes_ = bytes;
  CG_METRIC_GAUGE_SET("storage.pending_demotion_bytes", pending_demotion_bytes_);
  CG_TRACE_COUNTER("storage", "pending_demotion_bytes",
                   static_cast<double>(pending_demotion_bytes_));
}

void TieredKVStore::EnforceColdCapacityLocked(const std::string* keep) {
  if (opts_.cold_capacity_bytes == 0) return;
  // Mirrors the hot tier: LRU at whole-context granularity, deterministic
  // id tie-break, and the last context soft-overflows instead of thrashing.
  while (cold_bytes_ > opts_.cold_capacity_bytes && cold_.size() > 1) {
    auto victim = cold_.end();
    for (auto it = cold_.begin(); it != cold_.end(); ++it) {
      if (keep && it->first == *keep) continue;
      if (victim == cold_.end() ||
          it->second.last_touch_s < victim->second.last_touch_s ||
          (it->second.last_touch_s == victim->second.last_touch_s &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    if (victim == cold_.end()) return;
    // Unconditional, even for an entry still in RAM: it can shadow the files
    // of an earlier persisted incarnation.
    cold_erase_ids_.push_back(victim->first);
    const ColdEntry evicted = TakeColdLocked(victim);
    cold_evictions_.fetch_add(1, std::memory_order_relaxed);
    cold_evicted_bytes_.fetch_add(evicted.bytes, std::memory_order_relaxed);
    CG_METRIC_COUNT("storage.cold_evictions", 1);
    CG_TRACE_INSTANT("storage", "cold_evict", "bytes",
                     static_cast<double>(evicted.bytes));
  }
}

// --- promotion (cold -> hot) -------------------------------------------------

TierLookup TieredKVStore::LookupAndPin(const std::string& context_id,
                                       const ContextSpec& spec, double t_s) {
  // A hit covers the whole context and leaves it pinned.
  const auto hit = [&](KVTier tier) {
    TierLookup out;
    out.tier = tier;
    out.covered_tokens = spec.num_tokens;
    out.any_cold = tier == KVTier::kCold;
    out.pinned = true;
    return out;
  };
  if (hot_->LookupAndPin(context_id, spec, t_s).hit()) {
    hot_hits_.fetch_add(1, std::memory_order_relaxed);
    return hit(KVTier::kHot);
  }
  MutexLock promote_lock(promote_mu_);
  // A promotion that finished while this lookup waited moved the context
  // hot; with none in flight, a context in neither tier is absent.
  if (hot_->LookupAndPin(context_id, spec, t_s).hit()) {
    hot_hits_.fetch_add(1, std::memory_order_relaxed);
    return hit(KVTier::kHot);
  }
  std::vector<OwnedChunk> chunks;
  std::vector<ChunkKey> persisted_keys;
  {
    MutexLock lock(cold_mu_);
    const auto it = cold_.find(context_id);
    if (it == cold_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return TierLookup{};
    }
    ColdEntry entry = TakeColdLocked(it);
    if (entry.persisted) {
      for (const auto& [chunk_id, size] : entry.chunk_bytes) {
        persisted_keys.push_back({context_id, chunk_id.first, chunk_id.second});
      }
    } else {
      // Reclaim the demotion's buffers: the bytes the eviction handed over
      // go back to the hot tier without a copy.
      chunks = std::move(entry.buffer);
    }
  }

  // Placeholder pin first so the context survives concurrent evictions while
  // its chunks are re-inserted (the established write-back discipline). All
  // fallible work is contained below so the pin cannot leak.
  hot_->Pin(context_id);
  bool ok = true;
  uint64_t bytes_promoted = 0;
  try {
    for (const ChunkKey& key : persisted_keys) {
      auto bytes = cold_backend_->Get(key);
      if (!bytes) {
        ok = false;
        break;
      }
      chunks.emplace_back(key, std::move(*bytes));
    }
    ok = ok && !chunks.empty();
    if (ok) {
      for (const auto& [key, bytes] : chunks) bytes_promoted += bytes.size();
      // Atomic w.r.t. concurrent lookups: the context is never observable
      // half-populated. The buffers (read from disk, or reclaimed from the
      // demotion) become the hot tier's own.
      hot_->PutBatch(context_id, std::move(chunks));
    }
  } catch (...) {
    ok = false;
  }
  if (!ok) {
    // Cold copy unreadable (lost files, refused hot insert): back out and
    // degrade to a plain miss — the request recomputes from text.
    try {
      hot_->Unpin(context_id);
      hot_->EraseContext(context_id);
    } catch (...) {
      // Backout is best-effort (e.g. a file backend failing its erase too);
      // the pin was dropped first, so nothing stays unevictable.
    }
    // The Unpin above re-enforces capacity and can have EVICTED the
    // partially inserted context straight back through the demotion sink —
    // re-registering the corrupt subset in the manifest. Purge it, and
    // reclaim whatever files exist.
    {
      MutexLock lock(cold_mu_);
      const auto it = cold_.find(context_id);
      if (it != cold_.end()) TakeColdLocked(it);
      cold_erase_ids_.push_back(context_id);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return TierLookup{};
  }
  hot_->Touch(context_id, t_s);
  // Exclusive tiering: reclaim the cold files once the context lives hot
  // again, queued only now that its reads are done. Unconditional — even a
  // pending entry can shadow stale files of an earlier persisted incarnation.
  {
    MutexLock lock(cold_mu_);
    cold_erase_ids_.push_back(context_id);
  }
  cold_hits_.fetch_add(1, std::memory_order_relaxed);
  promotions_.fetch_add(1, std::memory_order_relaxed);
  promoted_bytes_.fetch_add(bytes_promoted, std::memory_order_relaxed);
  CG_METRIC_COUNT("storage.promotions", 1);
  CG_TRACE_INSTANT("storage", "promote", "bytes",
                   static_cast<double>(bytes_promoted));
  return hit(KVTier::kCold);
}

// --- the disk writer ---------------------------------------------------------

void TieredKVStore::Flush() {
  MutexLock lock(cold_mu_);
  bool changed = false;
  for (const std::string& id : cold_erase_ids_) {
    // The id re-entered the cold tier after it left: its newer incarnation
    // shares the directory and is written below, over the same files.
    if (cold_.count(id) > 0) continue;
    try {
      cold_backend_->EraseContext(id);
    } catch (...) {
    }
    changed = true;
  }
  cold_erase_ids_.clear();
  for (auto& [id, entry] : cold_) {
    if (entry.persisted) continue;
    try {
      for (const auto& [key, bytes] : entry.buffer) cold_backend_->Put(key, bytes);
      // Commit the context: without the sentinel, restart adoption treats
      // the directory as mid-persist debris and reclaims it.
      std::ofstream out(opts_.cold_root / SanitizeContextId(id) /
                            kColdCompleteSentinel,
                        std::ios::binary | std::ios::trunc);
      out << '1';
      out.close();
      if (out.fail()) continue;
    } catch (...) {
      // Disk refused (full/unwritable): the entry stays in RAM, counted as
      // pending, and reads and promotions keep using its buffer.
      continue;
    }
    SetPendingLocked(pending_demotion_bytes_ - entry.bytes);
    entry.persisted = true;
    entry.buffer.clear();
    entry.buffer.shrink_to_fit();
    changed = true;
  }
  if (changed) WriteManifestLocked();
}

// --- KVStore interface -------------------------------------------------------

void TieredKVStore::Put(const ChunkKey& key, std::span<const uint8_t> bytes) {
  hot_->Put(key, bytes);
}

void TieredKVStore::PutBatch(const std::string& context_id,
                             std::span<const ChunkView> chunks) {
  hot_->PutBatch(context_id, chunks);
}

std::optional<std::vector<uint8_t>> TieredKVStore::Get(
    const ChunkKey& key) const {
  if (auto from_hot = hot_->Get(key)) return from_hot;
  MutexLock promote_lock(promote_mu_);
  if (auto from_hot = hot_->Get(key)) return from_hot;
  {
    MutexLock lock(cold_mu_);
    const auto it = cold_.find(key.context_id);
    if (it == cold_.end()) return std::nullopt;
    if (!it->second.persisted) {
      for (const auto& [chunk_key, chunk_bytes] : it->second.buffer) {
        if (chunk_key.chunk_index == key.chunk_index &&
            chunk_key.level_id == key.level_id) {
          return chunk_bytes;  // copy out of the pending buffer
        }
      }
      return std::nullopt;
    }
  }
  // With no promotion in flight, the files go only at a Flush() after the
  // context itself left the cold tier (cold eviction, EraseContext).
  return cold_backend_->Get(key);
}

bool TieredKVStore::ContainsContext(const std::string& context_id) const {
  if (hot_->ContainsContext(context_id)) return true;
  MutexLock promote_lock(promote_mu_);
  if (hot_->ContainsContext(context_id)) return true;
  MutexLock lock(cold_mu_);
  return cold_.count(context_id) > 0;
}

void TieredKVStore::EraseContext(const std::string& context_id) {
  hot_->EraseContext(context_id);
  MutexLock lock(cold_mu_);
  const auto it = cold_.find(context_id);
  if (it == cold_.end()) return;
  TakeColdLocked(it);
  cold_erase_ids_.push_back(context_id);
}

uint64_t TieredKVStore::TotalBytes() const {
  uint64_t cold = 0;
  {
    MutexLock lock(cold_mu_);
    cold = cold_bytes_;
  }
  return hot_->TotalBytes() + cold;
}

uint64_t TieredKVStore::ContextBytes(const std::string& context_id) const {
  uint64_t cold = 0;
  {
    MutexLock lock(cold_mu_);
    const auto it = cold_.find(context_id);
    if (it != cold_.end()) cold = it->second.bytes;
  }
  return hot_->ContextBytes(context_id) + cold;
}

// --- pass-throughs & stats ---------------------------------------------------

void TieredKVStore::Pin(const std::string& context_id) {
  hot_->Pin(context_id);
}

void TieredKVStore::Unpin(const std::string& context_id) {
  hot_->Unpin(context_id);
}

void TieredKVStore::Touch(const std::string& context_id, double t_s) {
  hot_->Touch(context_id, t_s);
}

TieredKVStore::Stats TieredKVStore::stats() const {
  Stats s;
  s.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  s.cold_hits = cold_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.demotions = demotions_.load(std::memory_order_relaxed);
  s.demoted_bytes = demoted_bytes_.load(std::memory_order_relaxed);
  s.promotions = promotions_.load(std::memory_order_relaxed);
  s.promoted_bytes = promoted_bytes_.load(std::memory_order_relaxed);
  s.cold_evictions = cold_evictions_.load(std::memory_order_relaxed);
  s.cold_evicted_bytes = cold_evicted_bytes_.load(std::memory_order_relaxed);
  s.hot_tier = hot_->stats();
  s.hot_bytes = s.hot_tier.stored_bytes;
  {
    MutexLock lock(cold_mu_);
    s.cold_bytes = cold_bytes_;
    s.pending_demotion_bytes = pending_demotion_bytes_;
  }
  return s;
}

}  // namespace cachegen
