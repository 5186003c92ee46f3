#include "storage/tiered_kv_store.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "common/thread_pool.h"
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
// whole (temp + rename) by the background writer once per queue drain (per
// job would make an N-demotion burst O(N^2) in manifest I/O) — a crash
// between drains loses at most the latest rewrite, and adoption degrades to
// the sentinel + round-trip rules for unlisted directories.
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

std::optional<std::string> HexDecode(const std::string& s) {
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (s.size() % 2 != 0) return std::nullopt;
  std::string out;
  out.reserve(s.size() / 2);
  for (size_t i = 0; i < s.size(); i += 2) {
    const int hi = nibble(s[i]);
    const int lo = nibble(s[i + 1]);
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

double BitsDouble(uint64_t u) {
  double d = 0.0;
  std::memcpy(&d, &u, sizeof(d));
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
    if (!id) continue;  // corrupt row: skip, adoption falls back to rules
    uint64_t bits = 0;
    try {
      bits = std::stoull(touch_hex, nullptr, 16);
    } catch (...) {
      continue;
    }
    rows[dir] = ManifestRow{*id, BitsDouble(bits)};
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
  hot_ = std::make_unique<ShardedKVStore>(opts_.hot, std::move(hot_factory));
  cold_backend_ = std::make_unique<FileKVStore>(opts_.cold_root);
  AdoptPersistedColdContexts();
  // Installed last: no eviction can fire before the store is fully built.
  hot_->set_eviction_sink([this](ShardedKVStore::EvictedContext&& victim) {
    OnHotEviction(std::move(victim));
  });
}

TieredKVStore::~TieredKVStore() {
  // Drain the background writer before members die: every queued job holds
  // `this`.
  Flush();
}

void TieredKVStore::AdoptPersistedColdContexts() {
  if (!fs::exists(opts_.cold_root)) return;
  const std::map<std::string, ManifestRow> manifest =
      ReadColdManifest(opts_.cold_root);
  std::vector<std::string> erase_ids;
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
      auto entry = std::make_shared<ColdEntry>();
      for (const auto& f : fs::directory_iterator(dir.path())) {
        if (!f.is_regular_file() || f.path().extension() != ".cgkv") continue;
        uint32_t chunk = 0;
        int32_t level = 0;
        if (std::sscanf(f.path().filename().string().c_str(),
                        "chunk%u_level%d.cgkv", &chunk, &level) != 2) {
          continue;
        }
        entry->chunk_bytes[{chunk, level}] =
            static_cast<uint32_t>(f.file_size());
        entry->bytes += f.file_size();
      }
      if (entry->chunk_bytes.empty()) continue;
      entry->persisted = true;
      entry->last_touch_s = last_touch;
      cold_bytes_ += entry->bytes;
      cold_.emplace(id, std::move(entry));
    }
    // The budget may have shrunk since the adopted bytes were written.
    EnforceColdCapacityLocked(nullptr, &erase_ids);
  }
  for (std::string& id : erase_ids) EnqueueErase(std::move(id));
}

void TieredKVStore::SyncManifestToDisk() {
  // Snapshot under the lock, write without it.
  std::vector<std::pair<std::string, double>> rows;  // (original id, touch)
  {
    MutexLock lock(cold_mu_);
    rows.reserve(cold_.size());
    for (const auto& [id, e] : cold_) {
      if (e->persisted && !e->dead) rows.emplace_back(id, e->last_touch_s);
    }
  }
  const fs::path final_path = opts_.cold_root / kColdManifestName;
  const fs::path tmp = opts_.cold_root / (std::string(kColdManifestName) + ".tmp");
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;  // best-effort: adoption degrades to the fallback rules
    out << kColdManifestHeader << '\n';
    for (const auto& [id, touch] : rows) {
      char bits[17];
      std::snprintf(bits, sizeof(bits), "%016llx",
                    static_cast<unsigned long long>(DoubleBits(touch)));
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
  // Runs under the evicting shard's lock: register the manifest entry
  // synchronously (lookups racing the eviction must see the context as
  // cold), defer only the disk write. Lock order is shard -> cold_mu_;
  // nothing here blocks on I/O.
  const std::string id = victim.context_id;
  ColdEntryPtr entry;
  std::vector<std::string> erase_ids;
  {
    MutexLock lock(cold_mu_);
    ColdEntryPtr& slot = cold_[id];
    if (slot) {
      // Replace an older incarnation. Same id means same immutable content
      // and chunk set, so the new persist pass simply overwrites the old
      // files — no erase needed.
      slot->dead = true;
      ReleasePendingLocked(*slot);
      cold_bytes_ -= slot->bytes;
    }
    entry = std::make_shared<ColdEntry>();
    entry->bytes = victim.bytes;
    entry->last_touch_s = victim.last_touch_s;
    for (const auto& [key, bytes] : victim.chunks) {
      entry->chunk_bytes[{key.chunk_index, key.level_id}] =
          static_cast<uint32_t>(bytes.size());
    }
    entry->buffer = std::move(victim.chunks);
    slot = entry;
    cold_bytes_ += entry->bytes;
    entry->pending_counted = true;
    pending_demotion_bytes_ += entry->bytes;
    pending_fifo_.emplace_back(id, entry);
    demotions_.fetch_add(1, std::memory_order_relaxed);
    demoted_bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
    CG_METRIC_COUNT("storage.demotions", 1);
    CG_METRIC_GAUGE_SET("storage.pending_demotion_bytes",
                        pending_demotion_bytes_);
    CG_TRACE_INSTANT("storage", "demote", "bytes",
                     static_cast<double>(entry->bytes));
    CG_TRACE_COUNTER("storage", "pending_demotion_bytes",
                     static_cast<double>(pending_demotion_bytes_));
    EnforceColdCapacityLocked(&id, &erase_ids);
    EnforcePendingCapLocked(&erase_ids);
  }
  for (std::string& eid : erase_ids) EnqueueErase(std::move(eid));
  EnqueuePersist(id, std::move(entry));
}

void TieredKVStore::ReleasePendingLocked(ColdEntry& entry) {
  if (entry.pending_counted) {
    entry.pending_counted = false;
    pending_demotion_bytes_ -= entry.bytes;
    CG_METRIC_GAUGE_SET("storage.pending_demotion_bytes",
                        pending_demotion_bytes_);
    CG_TRACE_COUNTER("storage", "pending_demotion_bytes",
                     static_cast<double>(pending_demotion_bytes_));
  }
  // Lazily trim rows whose entries stopped pending (persisted, claimed,
  // replaced, dropped). Rows leave in roughly the same FIFO order they
  // entered, so front-trimming on every state change keeps the deque
  // proportional to the entries still awaiting the writer — without it,
  // every demotion of a long-lived store would leak its row forever (the
  // over-cap walk alone never runs when the cap is 0 or never exceeded).
  while (!pending_fifo_.empty() && !pending_fifo_.front().second->pending_counted) {
    pending_fifo_.pop_front();
  }
}

void TieredKVStore::EnforcePendingCapLocked(
    std::vector<std::string>* erase_ids) {
  if (opts_.max_pending_demotion_bytes == 0) return;
  // Drop-oldest-uncommitted: the entries that have waited longest for the
  // writer are sacrificed first — deterministic (FIFO demotion order, not
  // drain speed) because `pending_counted` only flips under cold_mu_ and a
  // dropped entry's persist job is guaranteed to still be behind us in the
  // job FIFO (it clears pending only at completion). Dropping removes the
  // context from the cold tier entirely: exactly what a bare sharded
  // eviction would have done, so the failure mode under a demotion burst is
  // a cold MISS later, not unbounded RAM now.
  while (pending_demotion_bytes_ > opts_.max_pending_demotion_bytes &&
         !pending_fifo_.empty()) {
    auto [drop_id, drop] = std::move(pending_fifo_.front());
    pending_fifo_.pop_front();
    // Stale FIFO rows: already persisted, claimed by a promotion, replaced,
    // or evicted — their bytes no longer count.
    if (!drop->pending_counted || drop->dead || drop->persisted) continue;
    ReleasePendingLocked(*drop);
    drop->dead = true;
    cold_bytes_ -= drop->bytes;
    const auto it = cold_.find(drop_id);
    if (it != cold_.end() && it->second == drop) cold_.erase(it);
    demotion_drops_.fetch_add(1, std::memory_order_relaxed);
    demotion_dropped_bytes_.fetch_add(drop->bytes, std::memory_order_relaxed);
    CG_METRIC_COUNT("storage.demotion_drops", 1);
    CG_TRACE_INSTANT("storage", "demotion_drop", "bytes",
                     static_cast<double>(drop->bytes));
    // Nothing of THIS incarnation reached disk, but an older persisted
    // incarnation's files may be shadowed under the same directory; the
    // erase job reclaims them (FIFO order makes it run after our dead
    // persist job no-ops).
    erase_ids->push_back(drop_id);
  }
}

void TieredKVStore::EnforceColdCapacityLocked(
    const std::string* keep, std::vector<std::string>* erase_ids) {
  if (opts_.cold_capacity_bytes == 0) return;
  // Mirrors the hot tier: LRU at whole-context granularity, deterministic
  // id tie-break, and the last context soft-overflows instead of thrashing.
  while (cold_bytes_ > opts_.cold_capacity_bytes && cold_.size() > 1) {
    const std::string* victim = nullptr;
    const ColdEntry* victim_meta = nullptr;
    for (const auto& [id, e] : cold_) {
      if (keep && id == *keep) continue;
      if (!victim || e->last_touch_s < victim_meta->last_touch_s ||
          (e->last_touch_s == victim_meta->last_touch_s && id < *victim)) {
        victim = &id;
        victim_meta = e.get();
      }
    }
    if (!victim) return;
    const auto it = cold_.find(*victim);
    it->second->dead = true;
    ReleasePendingLocked(*it->second);
    cold_bytes_ -= it->second->bytes;
    cold_evictions_.fetch_add(1, std::memory_order_relaxed);
    cold_evicted_bytes_.fetch_add(it->second->bytes,
                                  std::memory_order_relaxed);
    CG_METRIC_COUNT("storage.cold_evictions", 1);
    CG_TRACE_INSTANT("storage", "cold_evict", "bytes",
                     static_cast<double>(it->second->bytes));
    // Unconditional, even for pending entries that never reached disk: a
    // pending RE-demotion can be shadowing stale files of an earlier
    // persisted incarnation whose own erase was skipped (it found this
    // entry in the manifest). FIFO guarantees the pending persist job runs
    // first, sees `dead`, and writes nothing; the erase then clears any
    // leftovers so evicted bytes can't outlive the budget or resurrect on
    // restart.
    erase_ids->push_back(*victim);
    cold_.erase(it);
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
  ColdEntryPtr entry;
  std::vector<OwnedChunk> chunks;
  std::vector<ChunkKey> persisted_keys;
  bool retried = false;
  for (;;) {
    if (hot_->LookupAndPin(context_id, spec, t_s).hit()) {
      hot_hits_.fetch_add(1, std::memory_order_relaxed);
      return hit(KVTier::kHot);
    }
    cold_mu_.lock();
    if (promoting_.count(context_id) > 0) {
      // Another thread is moving this context hot; wait and retry the hot
      // lookup so concurrent requests for one cold context agree.
      while (promoting_.count(context_id) > 0) promote_cv_.Wait(cold_mu_);
      cold_mu_.unlock();
      continue;
    }
    const auto it = cold_.find(context_id);
    if (it == cold_.end()) {
      // A racing promotion can have completed wholesale between the hot
      // check and this manifest check; one clean retry of both tiers
      // settles it (a demotion registers in the manifest under the shard
      // lock before the hot tier forgets the context, so two consecutive
      // double misses mean genuinely absent).
      cold_mu_.unlock();
      if (!retried) {
        retried = true;
        continue;
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      return TierLookup{};
    }
    entry = it->second;
    entry->dead = true;  // claimed by this promotion
    ReleasePendingLocked(*entry);
    cold_bytes_ -= entry->bytes;
    cold_.erase(it);
    if (entry->persisted) {
      for (const auto& [chunk_id, size] : entry->chunk_bytes) {
        persisted_keys.push_back({context_id, chunk_id.first, chunk_id.second});
      }
    } else if (entry->writing) {
      // The background writer is reading the buffer outside the lock;
      // copy instead of stealing it (it will discard its files on `dead`).
      chunks = entry->buffer;
    } else {
      // Reclaim the demotion's buffers: the bytes the eviction handed over
      // go back to the hot tier without a copy.
      chunks = std::move(entry->buffer);
    }
    promoting_.insert(context_id);
    cold_mu_.unlock();
    break;
  }
  // Scope guard, not a manual call: the id must leave promoting_ on EVERY
  // exit — a throw that skipped it would park all future lookups for this
  // context on promote_cv_ forever.
  struct FinishPromotion {
    TieredKVStore* store;
    const std::string& id;
    ~FinishPromotion() {
      {
        MutexLock lock(store->cold_mu_);
        store->promoting_.erase(id);
      }
      store->promote_cv_.NotifyAll();
    }
  } finish_promotion{this, context_id};

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
    // re-registering the corrupt subset in the manifest. Purge it, then
    // reclaim whatever files exist (the erase job would otherwise skip a
    // context that is present in the manifest).
    {
      MutexLock lock(cold_mu_);
      const auto it = cold_.find(context_id);
      if (it != cold_.end()) {
        it->second->dead = true;
        cold_bytes_ -= it->second->bytes;
        cold_.erase(it);
      }
    }
    try {
      EnqueueErase(context_id);
    } catch (...) {
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return TierLookup{};
  }
  hot_->Touch(context_id, t_s);
  // Exclusive tiering: reclaim the cold files once the context lives hot
  // again. Unconditional — even a pending entry can shadow stale files of
  // an earlier persisted incarnation whose erase was skipped.
  EnqueueErase(context_id);
  cold_hits_.fetch_add(1, std::memory_order_relaxed);
  promotions_.fetch_add(1, std::memory_order_relaxed);
  promoted_bytes_.fetch_add(bytes_promoted, std::memory_order_relaxed);
  CG_METRIC_COUNT("storage.promotions", 1);
  CG_TRACE_INSTANT("storage", "promote", "bytes",
                   static_cast<double>(bytes_promoted));
  return hit(KVTier::kCold);
}

// --- background writer -------------------------------------------------------

void TieredKVStore::EnqueuePersist(const std::string& context_id,
                                   ColdEntryPtr entry) {
  EnqueueJob([this, context_id, entry = std::move(entry)] {
    const std::vector<OwnedChunk>* buffer = nullptr;
    {
      MutexLock lock(cold_mu_);
      if (entry->dead || entry->persisted) return;
      entry->writing = true;
      buffer = &entry->buffer;
    }
    // The buffer is only mutated under cold_mu_ by paths that first check
    // `writing`, so reading it here without the lock is safe.
    bool ok = true;
    for (const auto& [key, bytes] : *buffer) {
      try {
        cold_backend_->Put(key, bytes);
      } catch (...) {
        ok = false;
        break;
      }
    }
    if (ok) {
      // Commit the context: without the sentinel, restart adoption treats
      // the directory as mid-persist debris and reclaims it.
      try {
        const fs::path sentinel = opts_.cold_root /
                                  SanitizeContextId(context_id) /
                                  kColdCompleteSentinel;
        std::ofstream out(sentinel, std::ios::binary | std::ios::trunc);
        out << '1';
        out.flush();
        out.close();
        ok = !out.fail();
      } catch (...) {
        ok = false;
      }
    }
    bool discard_files = false;
    {
      MutexLock lock(cold_mu_);
      entry->writing = false;
      if (entry->dead) {
        // Promoted/evicted while writing: whatever landed on disk is
        // orphaned. (Its pending accounting was released where it died.)
        discard_files = true;
      } else if (ok) {
        entry->persisted = true;
        ReleasePendingLocked(*entry);
        entry->buffer.clear();
        entry->buffer.shrink_to_fit();
      }
      // !ok && !dead: disk refused (full/unwritable). The entry simply
      // stays memory-resident (and keeps counting against the pending cap);
      // reads and promotions keep using the buffer.
    }
    if (discard_files) {
      // Inline is safe: this runs at the front of the FIFO, so a newer
      // incarnation's persist job (queued behind us) rewrites afterwards.
      try {
        cold_backend_->EraseContext(context_id);
      } catch (...) {
      }
    }
    // The manifest is synced once per queue drain, not per job: a demotion
    // burst of N contexts would otherwise rewrite an O(N)-row file N times.
    manifest_dirty_.store(true, std::memory_order_release);
  });
}

void TieredKVStore::EnqueueErase(std::string context_id) {
  EnqueueJob([this, context_id = std::move(context_id)] {
    {
      MutexLock lock(cold_mu_);
      // A newer incarnation re-entered the manifest after this erase was
      // queued; its bytes share the directory, so removing it now would
      // destroy live data (its own persist pass keeps the files fresh).
      if (cold_.count(context_id) > 0) return;
    }
    try {
      cold_backend_->EraseContext(context_id);
    } catch (...) {
    }
    manifest_dirty_.store(true, std::memory_order_release);
  });
}

void TieredKVStore::EnqueueJob(std::function<void()> job) {
  // With no background workers (single-core pool / CACHEGEN_THREADS=1)
  // Submit would run the drainer inline — here possibly under the evicting
  // shard's lock, exactly the disk-I/O-under-lock the sink contract forbids.
  // Jobs stay queued instead (reads are served from the pending buffers) and
  // the next Flush() drains them on the caller's thread.
  const bool has_workers = ThreadPool::Instance().size() > 1;
  bool start_drainer = false;
  {
    MutexLock lock(queue_mu_);
    jobs_.push_back(std::move(job));
    if (has_workers && !drainer_active_) {
      drainer_active_ = true;
      start_drainer = true;
    }
  }
  if (start_drainer) {
    ThreadPool::Instance().Submit([this] { DrainJobs(); });
  }
}

void TieredKVStore::DrainJobs() {
  for (;;) {
    std::function<void()> job;
    queue_mu_.lock();
    if (jobs_.empty()) {
      // Settle the manifest before retiring, so any waiter released by
      // Flush() observes disk state (chunks AND manifest) in sync. Jobs
      // that arrive while writing are picked up by another loop turn —
      // only the true final drain retires the drainer role.
      queue_mu_.unlock();
      if (manifest_dirty_.exchange(false, std::memory_order_acq_rel)) {
        SyncManifestToDisk();
      }
      queue_mu_.lock();
      if (!jobs_.empty()) {
        queue_mu_.unlock();
        continue;
      }
      drainer_active_ = false;
      queue_cv_.NotifyAll();
      queue_mu_.unlock();
      return;
    }
    job = std::move(jobs_.front());
    jobs_.pop_front();
    queue_mu_.unlock();
    try {
      job();
    } catch (...) {
      // Background persistence is best-effort; the manifest state machine
      // keeps unwritten entries memory-resident.
    }
  }
}

void TieredKVStore::Flush() {
  // Loop, not a one-shot claim: with no background workers, a job enqueued
  // by another thread while this thread drains would otherwise strand the
  // wait forever (nothing else ever drains or signals in that mode).
  queue_mu_.lock();
  for (;;) {
    if (jobs_.empty() && !drainer_active_) {
      queue_mu_.unlock();
      return;
    }
    if (!drainer_active_) {
      // Claim the drainer role — the normal case when no background worker
      // exists — and drain on this thread.
      drainer_active_ = true;
      queue_mu_.unlock();
      DrainJobs();
      queue_mu_.lock();
      continue;
    }
    queue_cv_.Wait(queue_mu_);
  }
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
  bool retried = false;
  for (;;) {
    if (auto from_hot = hot_->Get(key)) return from_hot;
    cold_mu_.lock();
    if (promoting_.count(key.context_id) > 0) {
      // Mid-promotion the bytes live in the promoter's hands — neither
      // tier would answer. Wait and retry the hot tier.
      while (promoting_.count(key.context_id) > 0) promote_cv_.Wait(cold_mu_);
      cold_mu_.unlock();
      continue;
    }
    const auto it = cold_.find(key.context_id);
    if (it == cold_.end()) {
      // A racing promotion can have completed wholesale between the hot
      // check and here; one clean retry of both tiers settles it.
      cold_mu_.unlock();
      if (!retried) {
        retried = true;
        continue;
      }
      return std::nullopt;
    }
    if (!it->second->persisted) {
      std::optional<std::vector<uint8_t>> found;
      for (const auto& [chunk_key, chunk_bytes] : it->second->buffer) {
        if (chunk_key.chunk_index == key.chunk_index &&
            chunk_key.level_id == key.level_id) {
          found = chunk_bytes;  // copy out of the pending buffer
          break;
        }
      }
      cold_mu_.unlock();
      return found;
    }
    cold_mu_.unlock();
    if (auto from_cold = cold_backend_->Get(key)) return from_cold;
    // The files vanished between the manifest check and the read: a
    // concurrent promotion erased them after copying the context into the
    // hot tier (or it was re-demoted already). Go around once; a second
    // failure means the bytes are genuinely lost (corrupt cold copy).
    if (retried) return hot_->Get(key);
    retried = true;
  }
}

bool TieredKVStore::ContainsContext(const std::string& context_id) const {
  bool retried = false;
  for (;;) {
    if (hot_->ContainsContext(context_id)) return true;
    cold_mu_.lock();
    if (promoting_.count(context_id) > 0) {
      while (promoting_.count(context_id) > 0) promote_cv_.Wait(cold_mu_);
      cold_mu_.unlock();
      continue;  // promoted (or backed out): re-check the hot tier
    }
    const bool in_cold = cold_.count(context_id) > 0;
    cold_mu_.unlock();
    if (in_cold) return true;
    // A racing promotion can have completed wholesale between the hot check
    // and here; one clean retry of both tiers settles it.
    if (retried) return false;
    retried = true;
  }
}

void TieredKVStore::EraseContext(const std::string& context_id) {
  hot_->EraseContext(context_id);
  bool found = false;
  {
    MutexLock lock(cold_mu_);
    const auto it = cold_.find(context_id);
    if (it != cold_.end()) {
      found = true;
      it->second->dead = true;
      ReleasePendingLocked(*it->second);
      cold_bytes_ -= it->second->bytes;
      cold_.erase(it);
    }
  }
  if (found) EnqueueErase(context_id);
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
    if (it != cold_.end()) cold = it->second->bytes;
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
  s.demotion_drops = demotion_drops_.load(std::memory_order_relaxed);
  s.demotion_dropped_bytes =
      demotion_dropped_bytes_.load(std::memory_order_relaxed);
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
