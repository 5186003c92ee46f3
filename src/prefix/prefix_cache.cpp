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
  // Zero-ref chunks pinned by an in-flight stream become zombies: the bytes
  // stay until the last Unpin so a stream never loses a chunk mid-flight.
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
  index_.Erase(ContextTokenIds(entry.spec));
  const std::vector<std::string> cas_ids = std::move(entry.cas_ids);
  contexts_.erase(context_id);  // `entry` is dead past this line
  for (const std::string& cas : cas_ids) DerefChunkLocked(cas);
}

void PrefixCache::EnforceCapacityLocked(const std::string* keep) {
  if (opts_.capacity_bytes == 0) return;
  // LRU at context granularity, deterministic id tie-break, and the last
  // context soft-overflows — the same discipline as the sharded tier. What
  // differs is what an eviction frees: only the victim's UNSHARED chunks
  // (refcounts keep dedup'd prefixes alive for their surviving owners).
  while (unique_bytes_ > opts_.capacity_bytes && contexts_.size() > 1) {
    const std::string* victim = nullptr;
    const ContextEntry* victim_meta = nullptr;
    for (const auto& [id, e] : contexts_) {
      if ((keep && id == *keep) || e.pins > 0) continue;
      if (!victim || e.last_touch_s < victim_meta->last_touch_s ||
          (e.last_touch_s == victim_meta->last_touch_s && id < *victim)) {
        victim = &id;
        victim_meta = &e;
      }
    }
    if (!victim) return;  // everything left is pinned (or kept)
    const uint64_t before = unique_bytes_;
    const std::string victim_id = *victim;  // DeregisterContextLocked erases it
    DeregisterContextLocked(victim_id, contexts_.at(victim_id));
    ++evictions_;
    freed_bytes_ += before - unique_bytes_;
  }
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
  // Spec source, in priority order: a live BeginStore announcement, else an
  // existing registration of the same id (context content is immutable per
  // id in this system, so a re-store — e.g. the loser of a concurrent
  // double write-back whose announcement the winner already consumed —
  // reuses the registered spec instead of degrading to an opaque raw copy).
  ContextSpec spec;
  const auto ait = announced_.find(context_id);
  if (ait != announced_.end()) {
    spec = ait->second.spec;
  } else {
    const auto cit = contexts_.find(context_id);
    if (cit == contexts_.end()) {
      // Never announced: opaque pass-through, exactly the inner tier's
      // behavior (direct Engine users keep working unchanged). The caller
      // forwards with mu_ released.
      passthrough = true;
      return;
    }
    spec = cit->second.spec;
  }
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
  // backend write cannot leak unreferenced cas entries.
  std::vector<std::string> fresh;
  std::vector<std::string> cas_ids;
  cas_ids.reserve(ranges.size());
  uint64_t logical_bytes = 0;
  try {
    for (size_t j = 0; j < ranges.size(); ++j) {
      const std::string cas = ContentAddressFor(spec, j, ranges[j]);
      if (per_chunk[j].empty()) {
        const auto cov = chunks_.find(cas);
        const bool covered =
            cov != chunks_.end() && !cov->second.levels.empty() &&
            (cov->second.pins > 0 || inner_->kv().ContainsContext(cas));
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
      if (!inserted && !ce.levels.empty() && ce.pins == 0 &&
          !inner_->kv().ContainsContext(cas)) {
        // The inner tier lost this chunk's bytes behind our back (a tiered
        // inner's cold-capacity eviction). Dedup'ing against the stale
        // entry would skip the store forever; reset its byte/level state —
        // refs stay, the address is still every owner's address — so this
        // write-back re-stores and heals the chunk. (pins > 0 implies
        // inner-pinned, hence not evictable.)
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
  // A replaced incarnation hands its pins and recency to the replacement:
  // a PinGuard taken against the old registration must keep protecting the
  // new one (same id, same immutable content), and a re-store must not
  // reset the context to LRU stamp 0 and make it the next victim.
  int carried_pins = 0;
  double carried_touch = 0.0;
  const auto old = contexts_.find(context_id);
  if (old != contexts_.end()) {
    carried_pins = old->second.pins;
    carried_touch = old->second.last_touch_s;
    DeregisterContextLocked(context_id, old->second);
  }
  ContextEntry entry;
  entry.spec = spec;
  entry.cas_ids = std::move(cas_ids);
  entry.ranges = ranges;
  entry.logical_bytes = logical_bytes;
  entry.pins = carried_pins;
  entry.last_touch_s = carried_touch;
  const auto pit = pending_pins_.find(context_id);
  if (pit != pending_pins_.end()) {
    entry.pins += pit->second;
    pending_pins_.erase(pit);
  }
  contexts_.emplace(context_id, std::move(entry));
  index_.Insert(ContextTokenIds(spec));
  // The registration consumes this writer's announcement (the registered
  // spec covers any racing writer still mid-store), so one-shot contexts
  // do not accumulate announcement entries forever.
  const auto done = announced_.find(context_id);
  if (done != announced_.end() && --done->second.writers <= 0) {
    announced_.erase(done);
  }
  EnforceCapacityLocked(&context_id);
}

std::vector<bool> PrefixCache::PreStoreCoverage(
    const std::string& context_id, size_t num_chunks,
    std::span<const int32_t> level_ids) const {
  std::vector<bool> covered(num_chunks, false);
  MutexLock lock(mu_);
  // Spec source mirrors PutBatch: a live announcement, else an existing
  // registration (the re-store path). Anything else is pass-through — no
  // content addresses, nothing coverable.
  ContextSpec spec;
  const auto ait = announced_.find(context_id);
  if (ait != announced_.end()) {
    spec = ait->second.spec;
  } else {
    const auto rit = contexts_.find(context_id);
    if (rit == contexts_.end()) return covered;
    spec = rit->second.spec;
  }
  const auto ranges = SplitIntoChunks(spec.num_tokens, opts_.chunk_tokens);
  if (ranges.size() != num_chunks) return covered;  // grid mismatch: no skip
  for (size_t j = 0; j < num_chunks; ++j) {
    const auto it = chunks_.find(ContentAddressFor(spec, j, ranges[j]));
    if (it == chunks_.end() || it->second.levels.empty()) continue;
    bool all_levels = true;
    for (const int32_t lv : level_ids) {
      if (std::find(it->second.levels.begin(), it->second.levels.end(), lv) ==
          it->second.levels.end()) {
        all_levels = false;
        break;
      }
    }
    // pins > 0 implies inner-pinned (unevictable); otherwise confirm the
    // inner tier still holds the bytes — a tiered inner's cold-capacity
    // eviction can lose them behind our back, and a skipped encode against
    // a lost chunk would register a context with no bytes.
    if (all_levels && (it->second.pins > 0 ||
                       inner_->kv().ContainsContext(it->first))) {
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
    if (contexts_.count(context_id) > 0) return true;
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
      if (it->second.pins > 0) return;
      DeregisterContextLocked(context_id, it->second);
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
  // Covers both the registered-context fast path and the radix
  // longest-prefix walk over the unregistered path. The per-chunk inner
  // lookups (which, behind a tiered inner, may promote a cold chunk) run
  // under mu_, as PutBatch's inner writes do, so no chunk can be evicted
  // and no registration can change between resolving the run and pinning it.
  CG_TRACE_SPAN("prefix", "radix_lookup");
  MutexLock lock(mu_);
  TierLookup out;
  const auto it = contexts_.find(context_id);
  const bool registered = it != contexts_.end();
  std::vector<ChunkRange> grid;
  std::vector<std::string> matched;
  if (!registered) {
    // Unregistered id. It may still exist as an opaque pass-through context
    // in the inner tier (direct users).
    const TierLookup raw = inner_->LookupAndPin(context_id, spec, t_s);
    if (raw.pinned) {
      PinRecord rec;
      rec.raw = true;
      pin_records_[context_id].push_back(std::move(rec));
      ++full_hits_;
      CG_METRIC_COUNT("prefix.full_hits", 1);
      return raw;
    }
    grid = SplitIntoChunks(spec.num_tokens, opts_.chunk_tokens);
    const size_t match_tokens =
        index_.LongestPrefixTokens(ContextTokenIds(spec));
    // Longest cached CHUNK-ALIGNED prefix: a match ending mid-chunk cannot
    // be served (bitstreams are chunk-granular), so it floors to the
    // boundary.
    for (size_t j = 0; j < grid.size() && grid[j].end <= match_tokens; ++j) {
      matched.push_back(ContentAddressFor(spec, j, grid[j]));
    }
  }
  // The chunk grid and the candidate run: a registered context's own
  // addresses, else the request's chunks inside the radix match.
  const std::vector<ChunkRange>& ranges = registered ? it->second.ranges : grid;
  const std::vector<std::string>& candidates =
      registered ? it->second.cas_ids : matched;
  out.total_chunks = ranges.size();

  PinRecord rec;
  for (size_t j = 0; j < candidates.size(); ++j) {
    const auto cit = chunks_.find(candidates[j]);
    if (cit == chunks_.end()) break;
    const TierLookup r = inner_->LookupAndPin(cit->first, ContextSpec{}, t_s);
    if (!r.pinned) {
      // The inner tier genuinely lost the bytes (e.g. a tiered inner's
      // cold-capacity eviction): coverage ends here. Unless a stream still
      // pins the entry, reset its byte/level state now so accounting is
      // honest and the next write-back re-stores it.
      if (cit->second.pins == 0) InvalidateLostChunkLocked(cit->first);
      break;
    }
    ++cit->second.pins;
    rec.cas_ids.push_back(cit->first);
    out.any_cold = out.any_cold || r.tier == KVTier::kCold;
    out.covered_tokens += ranges[j].size();
  }
  out.covered_chunks = rec.cas_ids.size();

  if (registered && out.covered_chunks == out.total_chunks &&
      out.covered_chunks > 0) {
    out.tier = out.any_cold ? KVTier::kCold : KVTier::kHot;
    it->second.last_touch_s = std::max(it->second.last_touch_s, t_s);
    ++it->second.pins;
    rec.context_pin = true;
    ++full_hits_;
    CG_METRIC_COUNT("prefix.full_hits", 1);
  } else if (out.covered_chunks > 0) {
    // The inner tier lost a tail chunk (or the id is unregistered): serve
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
  pin_records_[context_id].push_back(std::move(rec));
  return out;
}

void PrefixCache::Pin(const std::string& context_id) {
  MutexLock lock(mu_);
  PinRecord rec;
  const auto it = contexts_.find(context_id);
  if (it != contexts_.end()) {
    ++it->second.pins;
    rec.context_pin = true;
  } else if (announced_.count(context_id) > 0) {
    // About to be stored content-addressed: remember the pin so the
    // registration starts life pinned (the write-back discipline).
    ++pending_pins_[context_id];
    rec.context_pin = true;
  } else {
    inner_->Pin(context_id);
    rec.raw = true;
  }
  pin_records_[context_id].push_back(std::move(rec));
}

void PrefixCache::Unpin(const std::string& context_id) {
  MutexLock lock(mu_);
  const auto rit = pin_records_.find(context_id);
  if (rit == pin_records_.end() || rit->second.empty()) {
    // No record: tolerate like the inner tiers tolerate stray Unpins.
    inner_->Unpin(context_id);
    return;
  }
  // Records are not keyed to their holder, so concurrent same-id holders'
  // Unpins could interleave. Releasing a pure context pin (a write-back
  // guard) must never take a lookup holder's chunk pins with it: prefer the
  // most recent cas-free record, falling back to plain LIFO. This biases
  // chunk pins toward LATE release — a pin held a little longer is safe, a
  // pin released under a live stream is not.
  std::vector<PinRecord>& stack = rit->second;
  size_t pick = stack.size() - 1;
  for (size_t k = stack.size(); k-- > 0;) {
    if (stack[k].cas_ids.empty() && !stack[k].raw) {
      pick = k;
      break;
    }
  }
  const PinRecord rec = std::move(stack[pick]);
  stack.erase(stack.begin() + static_cast<ptrdiff_t>(pick));
  if (stack.empty()) pin_records_.erase(rit);

  if (rec.raw) inner_->Unpin(context_id);
  for (const std::string& cas : rec.cas_ids) {
    inner_->Unpin(cas);
    const auto cit = chunks_.find(cas);
    if (cit != chunks_.end()) {
      if (cit->second.pins > 0) --cit->second.pins;
      // Last pin on a zombie (its final owner was evicted mid-stream):
      // reclaim the bytes now.
      if (cit->second.refs == 0 && cit->second.pins == 0) {
        CG_METRIC_COUNT("prefix.zombie_reclaims", 1);
        CG_TRACE_INSTANT("prefix", "zombie_reclaim", "bytes",
                         static_cast<double>(cit->second.bytes));
        EraseChunkLocked(cas);
      }
    }
  }
  if (rec.context_pin) {
    const auto it = contexts_.find(context_id);
    if (it != contexts_.end()) {
      if (it->second.pins > 0) --it->second.pins;
    } else {
      const auto pit = pending_pins_.find(context_id);
      if (pit != pending_pins_.end() && --pit->second <= 0) {
        pending_pins_.erase(pit);
      }
    }
  }
  // Pins can block eviction and leave the layer over budget; re-enforce now
  // that one dropped.
  EnforceCapacityLocked(nullptr);
}

void PrefixCache::Touch(const std::string& context_id, double t_s) {
  MutexLock lock(mu_);
  const auto it = contexts_.find(context_id);
  if (it == contexts_.end()) {
    inner_->Touch(context_id, t_s);
    return;
  }
  it->second.last_touch_s = std::max(it->second.last_touch_s, t_s);
  // Keep the inner tier's per-chunk recency in step so a tiered inner
  // demotes the genuinely coldest cas entries.
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
  s.evictions = evictions_;
  s.freed_bytes = freed_bytes_;
  return s;
}

}  // namespace cachegen
