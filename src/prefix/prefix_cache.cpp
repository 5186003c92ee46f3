#include "prefix/prefix_cache.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

namespace {
// Folded into every content address so chunks encoded under a different
// quantization/codec configuration never alias.
const std::string kCodecFingerprint = "cachegen-default-ladder-v1";
}  // namespace

PrefixCache::PrefixCache(std::shared_ptr<CacheTier> inner, Options opts)
    : inner_(std::move(inner)), opts_(std::move(opts)) {
  if (!inner_) throw std::invalid_argument("PrefixCache: inner tier required");
  if (opts_.chunk_tokens == 0) {
    throw std::invalid_argument("PrefixCache: chunk_tokens must be > 0");
  }
}

PrefixCache::~PrefixCache() = default;

std::string PrefixCache::ContentAddress(const ContextSpec& spec,
                                        size_t chunk_index) const {
  const auto ranges = SplitIntoChunks(spec.num_tokens, opts_.chunk_tokens);
  if (chunk_index >= ranges.size()) {
    throw std::out_of_range("PrefixCache::ContentAddress: bad chunk index");
  }
  return ContentAddressFor(spec, chunk_index, ranges[chunk_index]);
}

// Hot-path form: callers that already hold the chunk grid pass the range in,
// so addressing a whole context stays linear instead of re-deriving the grid
// per chunk.
std::string PrefixCache::ContentAddressFor(const ContextSpec& spec,
                                           size_t chunk_index,
                                           const ChunkRange& range) const {
  // The digest covers everything the chunk's BYTES are a function of: the
  // literal token span, its absolute placement, the codec configuration,
  // and the generating segment's parameters. The last part matters because
  // the synthetic prefill normalizes token position by the generating
  // context's length: a chunk lying entirely inside the shared prefix is
  // generated from the standalone family context {prefix_seed,
  // prefix_tokens} — identical for members of ANY total length, so those
  // chunks must alias — while a chunk touching the suffix depends on the
  // member's own (seed, num_tokens) and must not alias across lengths even
  // when the leading token ids agree.
  const size_t pt = std::min(spec.prefix_tokens, spec.num_tokens);
  Sha256 h;
  h.Update(kCodecFingerprint);
  h.UpdateU64(range.begin);
  h.UpdateU64(range.end);
  h.UpdateU32(static_cast<uint32_t>(chunk_index));
  if (range.end <= pt) {
    h.UpdateU64(spec.prefix_seed);
    h.UpdateU64(pt);
  } else {
    h.UpdateU64(spec.seed);
    h.UpdateU64(spec.num_tokens);
    h.UpdateU64(spec.prefix_seed);
    h.UpdateU64(pt);
  }
  for (size_t i = range.begin; i < range.end; ++i) {
    h.UpdateU32(ContextTokenAt(spec, i));
  }
  return "cas-" + Sha256Hex(h.Finish(), 16);
}

// --- chunk entry bookkeeping (mu_ held) --------------------------------------

const ContextSpec* PrefixCache::SpecLocked(const std::string& context_id) const {
  const auto ait = announced_.find(context_id);
  if (ait != announced_.end()) return &ait->second.spec;
  const auto cit = contexts_.find(context_id);
  return cit != contexts_.end() ? &cit->second.spec : nullptr;
}

void PrefixCache::EraseChunkLocked(const std::string& cas_id) {
  const auto it = chunks_.find(cas_id);
  if (it == chunks_.end()) return;
  unique_bytes_ -= it->second.bytes;
  CG_METRIC_GAUGE_SET("prefix.unique_bytes", unique_bytes_);
  chunks_.erase(it);
  inner_->kv().EraseContext(cas_id);
}

void PrefixCache::InvalidateLostChunkLocked(const std::string& cas_id) {
  const auto it = chunks_.find(cas_id);
  if (it == chunks_.end()) return;
  unique_bytes_ -= it->second.bytes;
  it->second.bytes = 0;
  it->second.levels.clear();
}

void PrefixCache::DerefChunkLocked(const std::string& cas_id) {
  const auto it = chunks_.find(cas_id);
  if (it == chunks_.end()) return;
  if (it->second.refs > 0) --it->second.refs;
  // Zero-ref chunks that a pin holds become zombies: the bytes stay until the
  // last Unpin so a stream never loses a chunk mid-flight.
  if (it->second.refs == 0) {
    if (it->second.pins == 0) {
      EraseChunkLocked(cas_id);
    } else {
      CG_METRIC_COUNT("prefix.zombie_deferrals", 1);
      CG_TRACE_INSTANT("prefix", "zombie_deferral", "bytes",
                       static_cast<double>(it->second.bytes));
    }
  }
}

void PrefixCache::DeregisterContextLocked(const std::string& context_id,
                                          ContextEntry& entry) {
  const std::vector<std::string> cas_ids = std::move(entry.cas_ids);
  contexts_.erase(context_id);  // `entry` is dead past this line
  for (const std::string& cas : cas_ids) DerefChunkLocked(cas);
}

// --- KVStore interface -------------------------------------------------------

void PrefixCache::Put(const ChunkKey& key, std::span<const uint8_t> bytes) {
  inner_->kv().Put(key, bytes);
}

void PrefixCache::PutBatch(const std::string& context_id,
                           std::span<const ChunkView> chunks) {
  // The body can throw (grid validation, inner backend writes), so the lock
  // is scoped RAII; the never-announced pass-through exits the scope first
  // and calls the inner tier with mu_ released.
  bool passthrough = false;
  {
    MutexLock lock(mu_);
    PutBatchLocked(context_id, chunks, passthrough);
  }
  if (passthrough) inner_->kv().PutBatch(context_id, chunks);
}

void PrefixCache::PutBatchLocked(const std::string& context_id,
                                 std::span<const ChunkView> chunks,
                                 bool& passthrough) {
  // A re-store of a registered id without a fresh announcement (e.g. the
  // loser of a double write-back whose announcement the winner consumed)
  // reuses the registered spec instead of degrading to an opaque raw copy.
  const ContextSpec* stored_spec = SpecLocked(context_id);
  if (stored_spec == nullptr) {
    // Never announced: opaque pass-through, exactly the inner tier's
    // behavior (direct Engine users keep working unchanged). The caller
    // forwards with mu_ released.
    passthrough = true;
    return;
  }
  // A copy: the registration below replaces the entry a re-store's spec
  // lives in.
  const ContextSpec spec = *stored_spec;
  const auto ranges = SplitIntoChunks(spec.num_tokens, opts_.chunk_tokens);

  // Bucket the incoming views by chunk index; content addressing needs the
  // whole grid (every chunk present) or the registration would alias a
  // partial context.
  std::vector<std::vector<const ChunkView*>> per_chunk(ranges.size());
  for (const ChunkView& view : chunks) {
    if (view.first.context_id != context_id) {
      throw std::invalid_argument(
          "PrefixCache::PutBatch: key names a different context");
    }
    if (view.first.chunk_index >= ranges.size()) {
      throw std::invalid_argument(
          "PrefixCache::PutBatch: chunk index outside the announced grid "
          "(chunk_tokens mismatch between PrefixCache and Engine?)");
    }
    per_chunk[view.first.chunk_index].push_back(&view);
  }
  // The full grid is required, EXCEPT that a chunk whose content address is
  // already fully present (a dedup-covered chunk Engine::StoreKV skipped
  // after a PreStoreCoverage probe) may be omitted: the registration simply
  // references the existing entry.

  // Dedup and persist chunk by chunk. Entries created here stay at refs == 0
  // until the registration step; on failure they are reclaimed so a thrown
  // backend write cannot leak unreferenced cas entries (entries a Pin()
  // created are reclaimed at its Unpin).
  std::vector<std::string> fresh;
  std::vector<std::string> cas_ids;
  cas_ids.reserve(ranges.size());
  uint64_t logical_bytes = 0;
  try {
    for (size_t j = 0; j < ranges.size(); ++j) {
      const std::string cas = ContentAddressFor(spec, j, ranges[j]);
      if (per_chunk[j].empty()) {
        const auto cov = chunks_.find(cas);
        const bool covered = cov != chunks_.end() &&
                             !cov->second.levels.empty() &&
                             inner_->kv().ContainsContext(cas);
        if (!covered) {
          throw std::invalid_argument(
              "PrefixCache::PutBatch: announced context stored without "
              "chunk " +
              std::to_string(j) +
              " — the full grid is required unless the chunk is "
              "dedup-covered");
        }
        deduped_bytes_ += cov->second.bytes;
        ++deduped_chunks_;
        CG_METRIC_COUNT("prefix.deduped_chunks", 1);
        CG_TRACE_INSTANT("prefix", "dedup", "bytes",
                         static_cast<double>(cov->second.bytes));
        logical_bytes += cov->second.bytes;
        cas_ids.push_back(cas);
        continue;
      }
      const auto [cit, inserted] = chunks_.try_emplace(cas);
      if (inserted) fresh.push_back(cas);
      ChunkEntry& ce = cit->second;
      if (!inserted && !ce.levels.empty() &&
          !inner_->kv().ContainsContext(cas)) {
        // The inner tier evicted this chunk's bytes. Dedup'ing against the
        // stale entry would skip the store forever; reset its byte/level
        // state — refs stay, the address is still every owner's address —
        // so this write-back re-stores and heals the chunk.
        InvalidateLostChunkLocked(cas);
      }
      std::vector<ChunkView> to_store;
      uint64_t dedup_here = 0;
      for (const ChunkView* view : per_chunk[j]) {
        logical_bytes += view->second.size();
        const int32_t level = view->first.level_id;
        if (std::find(ce.levels.begin(), ce.levels.end(), level) !=
            ce.levels.end()) {
          dedup_here += view->second.size();
        } else {
          to_store.emplace_back(
              ChunkKey{cas, view->first.chunk_index, level}, view->second);
        }
      }
      if (!to_store.empty()) {
        inner_->kv().PutBatch(cas, to_store);
        for (const ChunkView& v : to_store) {
          ce.levels.push_back(v.first.level_id);
          ce.bytes += v.second.size();
          unique_bytes_ += v.second.size();
        }
        CG_METRIC_GAUGE_SET("prefix.unique_bytes", unique_bytes_);
      }
      if (dedup_here > 0) {
        deduped_bytes_ += dedup_here;
        ++deduped_chunks_;
        CG_METRIC_COUNT("prefix.deduped_chunks", 1);
        CG_TRACE_INSTANT("prefix", "dedup", "bytes",
                         static_cast<double>(dedup_here));
      }
      cas_ids.push_back(cas);
    }
  } catch (...) {
    for (const std::string& cas : fresh) {
      const auto cit = chunks_.find(cas);
      if (cit != chunks_.end() && cit->second.refs == 0 &&
          cit->second.pins == 0) {
        EraseChunkLocked(cas);
      }
    }
    throw;
  }

  // Register: take the new references FIRST, then replace any older
  // incarnation (a double write-back race) — the other way round the old
  // incarnation's deref would erase the very chunks the re-store just
  // dedup'd against (same spec, same addresses, refs momentarily zero).
  for (const std::string& cas : cas_ids) ++chunks_.at(cas).refs;
  const auto old = contexts_.find(context_id);
  if (old != contexts_.end()) DeregisterContextLocked(context_id, old->second);
  contexts_.emplace(context_id, ContextEntry{spec, std::move(cas_ids), ranges,
                                             logical_bytes});
  // The registration consumes this writer's announcement (the registered
  // spec covers any racing writer still mid-store), so one-shot contexts
  // do not accumulate announcement entries forever.
  const auto done = announced_.find(context_id);
  if (done != announced_.end() && --done->second.writers <= 0) {
    announced_.erase(done);
  }
}

std::vector<bool> PrefixCache::PreStoreCoverage(
    const std::string& context_id, size_t num_chunks,
    std::span<const int32_t> level_ids) const {
  std::vector<bool> covered(num_chunks, false);
  MutexLock lock(mu_);
  // A pass-through id has no content addresses: nothing is coverable.
  const ContextSpec* spec = SpecLocked(context_id);
  if (spec == nullptr) return covered;
  const auto ranges = SplitIntoChunks(spec->num_tokens, opts_.chunk_tokens);
  if (ranges.size() != num_chunks) return covered;  // grid mismatch: no skip
  for (size_t j = 0; j < num_chunks; ++j) {
    const auto it = chunks_.find(ContentAddressFor(*spec, j, ranges[j]));
    if (it == chunks_.end() || it->second.levels.empty()) continue;
    bool all_levels = true;
    for (const int32_t lv : level_ids) {
      if (std::find(it->second.levels.begin(), it->second.levels.end(), lv) ==
          it->second.levels.end()) {
        all_levels = false;
        break;
      }
    }
    // The inner tier may have evicted the bytes since they were stored, and
    // a skipped encode against a lost chunk would register a context with
    // no bytes.
    if (all_levels && inner_->kv().ContainsContext(it->first)) {
      covered[j] = true;
    }
  }
  return covered;
}

std::optional<std::vector<uint8_t>> PrefixCache::Get(const ChunkKey& key) const {
  ChunkKey target = key;
  {
    MutexLock lock(mu_);
    const auto it = contexts_.find(key.context_id);
    if (it != contexts_.end() &&
        key.chunk_index < it->second.cas_ids.size()) {
      target.context_id = it->second.cas_ids[key.chunk_index];
    }
  }
  // Inner read (possibly cold-tier disk I/O) runs outside the prefix lock.
  return inner_->kv().Get(target);
}

bool PrefixCache::ContainsContext(const std::string& context_id) const {
  {
    MutexLock lock(mu_);
    const auto it = contexts_.find(context_id);
    if (it != contexts_.end()) {
      return std::all_of(it->second.cas_ids.begin(), it->second.cas_ids.end(),
                         [this](const std::string& cas) {
                           return inner_->kv().ContainsContext(cas);
                         });
    }
  }
  return inner_->kv().ContainsContext(context_id);
}

void PrefixCache::EraseContext(const std::string& context_id) {
  {
    MutexLock lock(mu_);
    const auto it = contexts_.find(context_id);
    if (it != contexts_.end()) {
      // Same contract as the inner tiers: a pinned context is never removed
      // out from under an in-flight request.
      if (pin_records_.count(context_id) == 0) {
        DeregisterContextLocked(context_id, it->second);
      }
      return;
    }
  }
  inner_->kv().EraseContext(context_id);
}

uint64_t PrefixCache::TotalBytes() const { return inner_->kv().TotalBytes(); }

uint64_t PrefixCache::ContextBytes(const std::string& context_id) const {
  {
    MutexLock lock(mu_);
    const auto it = contexts_.find(context_id);
    if (it != contexts_.end()) return it->second.logical_bytes;
  }
  return inner_->kv().ContextBytes(context_id);
}

// --- CacheTier interface -----------------------------------------------------

TierLookup PrefixCache::LookupAndPin(const std::string& context_id,
                                     const ContextSpec& spec, double t_s) {
  // Walks the request's own chunk addresses: a registered id's stored ones,
  // else those of the request's chunk grid, until one is not in the layer.
  // The per-chunk inner lookups (which, behind a tiered inner, may promote a
  // cold chunk) run under mu_, as PutBatch's inner writes do, so no chunk
  // can be evicted and no registration can change between resolving the run
  // and pinning it.
  CG_TRACE_SPAN("prefix", "lookup");
  MutexLock lock(mu_);
  TierLookup out;
  const auto it = contexts_.find(context_id);
  const bool registered = it != contexts_.end();
  std::vector<ChunkRange> grid;
  if (!registered) {
    // Unregistered id. It may still exist as an opaque pass-through context
    // in the inner tier (direct users).
    const TierLookup raw = inner_->LookupAndPin(context_id, spec, t_s);
    if (raw.pinned) {
      pin_records_[context_id].push_back({context_id});
      ++full_hits_;
      CG_METRIC_COUNT("prefix.full_hits", 1);
      return raw;
    }
    grid = SplitIntoChunks(spec.num_tokens, opts_.chunk_tokens);
  }
  const std::vector<ChunkRange>& ranges = registered ? it->second.ranges : grid;
  out.total_chunks = ranges.size();

  std::vector<std::string> pinned;
  for (size_t j = 0; j < ranges.size(); ++j) {
    const auto cit =
        chunks_.find(registered ? it->second.cas_ids[j]
                                : ContentAddressFor(spec, j, ranges[j]));
    if (cit == chunks_.end()) break;
    const TierLookup r = inner_->LookupAndPin(cit->first, ContextSpec{}, t_s);
    if (!r.pinned) {
      // The inner tier evicted the bytes: coverage ends here. Reset the
      // entry's byte/level state so accounting is honest and the next
      // write-back re-stores it.
      InvalidateLostChunkLocked(cit->first);
      break;
    }
    ++cit->second.pins;
    pinned.push_back(cit->first);
    out.any_cold = out.any_cold || r.tier == KVTier::kCold;
    out.any_remote = out.any_remote || r.any_remote;
    out.covered_tokens += ranges[j].size();
  }
  out.covered_chunks = pinned.size();

  if (registered && out.covered_chunks == out.total_chunks &&
      out.covered_chunks > 0) {
    out.tier = out.any_cold ? KVTier::kCold : KVTier::kHot;
    ++full_hits_;
    CG_METRIC_COUNT("prefix.full_hits", 1);
  } else if (out.covered_chunks > 0) {
    // The inner tier evicted a tail chunk (or the id is unregistered): serve
    // what survives as a partial prefix (the serving layer text-recomputes
    // the rest).
    ++prefix_hits_;
    covered_tokens_total_ += out.covered_tokens;
    CG_METRIC_COUNT("prefix.partial_hits", 1);
  } else {
    ++misses_;
    CG_METRIC_COUNT("prefix.misses", 1);
    return out;  // nothing pinned, no record
  }
  out.pinned = true;
  pin_records_[context_id].push_back(std::move(pinned));
  return out;
}

void PrefixCache::Pin(const std::string& context_id) {
  MutexLock lock(mu_);
  std::vector<std::string> pinned;
  const ContextSpec* spec = SpecLocked(context_id);
  if (spec == nullptr) {
    inner_->Pin(context_id);
    pinned.push_back(context_id);
  } else {
    // Every chunk address of the context, stored yet or not: a write-back's
    // chunks are pinned from their first insert on.
    const auto ranges = SplitIntoChunks(spec->num_tokens, opts_.chunk_tokens);
    for (size_t j = 0; j < ranges.size(); ++j) {
      std::string cas = ContentAddressFor(*spec, j, ranges[j]);
      inner_->Pin(cas);
      ++chunks_[cas].pins;
      pinned.push_back(std::move(cas));
    }
  }
  pin_records_[context_id].push_back(std::move(pinned));
}

void PrefixCache::Unpin(const std::string& context_id) {
  MutexLock lock(mu_);
  const auto rit = pin_records_.find(context_id);
  if (rit == pin_records_.end()) {
    // No record: tolerate like the inner tiers tolerate stray Unpins.
    inner_->Unpin(context_id);
    return;
  }
  // Records are not keyed to their holder. The most recent is the caller's
  // own whenever pins on one id nest, as a write-back's Pin/Unpin pair does:
  // it encloses no other call on the id.
  const std::vector<std::string> pinned = std::move(rit->second.back());
  rit->second.pop_back();
  if (rit->second.empty()) pin_records_.erase(rit);

  for (const std::string& id : pinned) {
    inner_->Unpin(id);
    const auto cit = chunks_.find(id);
    if (cit == chunks_.end()) continue;  // the pass-through id
    if (cit->second.pins > 0) --cit->second.pins;
    // Last pin on a zombie (its last registration was erased while this pin
    // held it), or on the address of a write-back that never registered:
    // reclaim the bytes now.
    if (cit->second.refs == 0 && cit->second.pins == 0) {
      if (!cit->second.levels.empty()) {
        CG_METRIC_COUNT("prefix.zombie_reclaims", 1);
        CG_TRACE_INSTANT("prefix", "zombie_reclaim", "bytes",
                         static_cast<double>(cit->second.bytes));
      }
      EraseChunkLocked(id);
    }
  }
}

void PrefixCache::Touch(const std::string& context_id, double t_s) {
  MutexLock lock(mu_);
  const auto it = contexts_.find(context_id);
  if (it == contexts_.end()) {
    inner_->Touch(context_id, t_s);
    return;
  }
  // Recency lives on the chunks, in the inner tier.
  for (const std::string& cas : it->second.cas_ids) inner_->Touch(cas, t_s);
}

void PrefixCache::BeginStore(const std::string& context_id,
                             const ContextSpec& spec) {
  MutexLock lock(mu_);
  Announcement& a = announced_[context_id];
  a.spec = spec;
  ++a.writers;
}

void PrefixCache::AbortStore(const std::string& context_id) {
  MutexLock lock(mu_);
  // Registration and abort each retire one writer's announcement, so failed
  // write-backs of one-shot ids cannot accumulate announcement state
  // forever — while a racing writer's live announcement survives.
  const auto it = announced_.find(context_id);
  if (it != announced_.end() && --it->second.writers <= 0) {
    announced_.erase(it);
  }
}

PrefixCache::Stats PrefixCache::stats() const {
  MutexLock lock(mu_);
  Stats s;
  s.full_hits = full_hits_;
  s.prefix_hits = prefix_hits_;
  s.misses = misses_;
  s.covered_tokens = covered_tokens_total_;
  s.deduped_bytes = deduped_bytes_;
  s.deduped_chunks = deduped_chunks_;
  s.unique_chunks = chunks_.size();
  s.unique_bytes = unique_bytes_;
  s.contexts = contexts_.size();
  return s;
}

}  // namespace cachegen
