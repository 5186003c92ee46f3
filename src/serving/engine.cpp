#include "serving/engine.h"

#include <algorithm>
#include <stdexcept>

#include "baselines/quant_baseline.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace cachegen {

namespace {

// Persist one context's freshly encoded chunks in a single PutBatch, so the
// store can make the whole context visible atomically (a concurrent lookup
// or a mid-write failure never observes a half-written context).
void PutEncodedBatch(
    KVStore& store, const std::string& context_id,
    const std::vector<std::pair<ChunkKey, std::vector<uint8_t>>>& encoded) {
  std::vector<ChunkView> views;
  views.reserve(encoded.size());
  for (const auto& [key, bytes] : encoded) {
    views.emplace_back(key, std::span<const uint8_t>(bytes));
  }
  store.PutBatch(context_id, views);
}

}  // namespace

Engine::Engine(Options opts, std::shared_ptr<KVStore> store)
    : opts_(std::move(opts)),
      model_(ModelConfig::Preset(opts_.model_name)),
      llm_(std::make_unique<SyntheticModel>(model_, opts_.model_seed)),
      store_(store ? std::move(store) : std::make_shared<MemoryKVStore>()) {
  BuildProfile();
  const auto& levels = DefaultEncodingLevels();
  encoders_.resize(levels.size());
  decoders_.resize(levels.size());
  layered_.resize(levels.size());
  for (size_t i = 0; i < levels.size(); ++i) {
    auto tables = std::make_shared<TableSet>(*profile_, levels[i], opts_.codec);
    encoders_[i] = std::make_unique<KVEncoder>(profile_, tables);
    decoders_[i] = std::make_unique<KVDecoder>(profile_, tables);
    layered_[i] = std::make_unique<LayeredEncoder>(profile_, tables, levels[i],
                                                   opts_.fine_bin_sigma);
  }
}

void Engine::BuildProfile() {
  // Offline profiling pass (§5.2): a handful of calibration contexts from
  // the same model; distributions are reused for every later context.
  std::vector<KVCache> caches;
  caches.reserve(opts_.calib_num_contexts);
  std::vector<const KVCache*> ptrs;
  for (size_t i = 0; i < opts_.calib_num_contexts; ++i) {
    ContextSpec ctx{0xCA11B000ULL + i * 97ULL, opts_.calib_context_tokens};
    caches.push_back(llm_->Prefill(ctx));
  }
  for (const auto& c : caches) ptrs.push_back(&c);
  profile_ = std::make_shared<KVProfile>(
      KVProfile::Build(model_, ptrs, opts_.codec.token_group_size));
}

KVCache Engine::CalculateKV(const ContextSpec& ctx) const { return llm_->Prefill(ctx); }

const KVEncoder& Engine::EncoderFor(int level) const {
  return *encoders_.at(static_cast<size_t>(level));
}
const KVDecoder& Engine::DecoderFor(int level) const {
  return *decoders_.at(static_cast<size_t>(level));
}
const LayeredEncoder& Engine::LayeredFor(int level) const {
  return *layered_.at(static_cast<size_t>(level));
}

ContextPlan Engine::StoreKV(const std::string& context_id, const ContextSpec& ctx) {
  const auto ranges = SplitIntoChunks(ctx.num_tokens, opts_.chunk_tokens);
  const auto& levels = DefaultEncodingLevels();

  // Dedup-aware encode skip: ask the store which chunks' bitstreams already
  // exist under content addressing (prefix-aware stores only; plain stores
  // report none). Covered chunks are neither prefilled nor encoded — the
  // whole point of a shared prefix is that its suffix sibling pays only for
  // the suffix — and PutBatch tolerates their omission from the grid.
  std::vector<int32_t> level_ids;
  level_ids.reserve(levels.size());
  for (const auto& lv : levels) level_ids.push_back(lv.id);
  const std::vector<bool> covered =
      store_->PreStoreCoverage(context_id, ranges.size(), level_ids);
  const size_t covered_count = static_cast<size_t>(
      std::count(covered.begin(), covered.end(), true));

  ContextPlan plan;
  plan.total_tokens = ctx.num_tokens;
  plan.quality_per_level = calibration().quality_per_level;
  plan.quality_enhanced_per_level = calibration().quality_enhanced_per_level;
  // When the engine carries a layered calibration, the returned plan prices
  // per-chunk enhancement layers too (entropy estimate over the residual the
  // just-encoded base leaves behind), so it can drive kProgressive directly.
  const bool layered = !plan.quality_enhanced_per_level.empty();
  plan.chunks.reserve(ranges.size());

  // Encode everything first, persist in one PutBatch at the end: the store
  // makes the whole context visible atomically, so a concurrent lookup (or a
  // mid-write failure) never observes a half-written context. Deliberate
  // trade: the full encoded context (~1.5 KB/token across the ladder) sits
  // in memory until the batch lands — it buys atomicity exactly on the
  // concurrent sharded/tiered stores the cluster serves from; plain
  // Memory/File stores just run the base class's Put loop.
  // The full-context prefill is computed only when every chunk needs it; a
  // partially covered context prefills just its uncovered ranges (bit-exact
  // per chunk, see AssembleKV), and a fully covered one touches no GPU at
  // all — the store call degenerates to a registration.
  std::optional<KVCache> cache;
  if (covered_count == 0) cache = CalculateKV(ctx);

  const CodecCalibration& calib = calibration();
  // The encoder hands back the receiver's reconstruction of each level, so
  // pricing the enhancement layer never decodes the bits just written. One
  // buffer serves every level and chunk.
  KVCache recon;
  uint64_t skipped_bytes = 0;
  std::vector<std::pair<ChunkKey, std::vector<uint8_t>>> encoded;
  encoded.reserve((ranges.size() - covered_count) * levels.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    ChunkPlan cp;
    cp.range = ranges[i];
    cp.bytes_per_level.resize(levels.size());
    if (layered) cp.enh_bytes_per_level.resize(levels.size());
    if (covered[i]) {
      // Skipped encode: the plan prices this chunk from calibration (the
      // stored bytes exist but were never rematerialized here).
      const double tokens = static_cast<double>(ranges[i].size());
      for (size_t lv = 0; lv < levels.size(); ++lv) {
        cp.bytes_per_level[lv] = calib.bytes_per_token_per_level[lv] * tokens;
        if (layered) {
          cp.enh_bytes_per_level[lv] =
              calib.enh_bytes_per_token_per_level[lv] * tokens;
        }
        skipped_bytes += static_cast<uint64_t>(cp.bytes_per_level[lv]);
      }
      plan.chunks.push_back(std::move(cp));
      continue;
    }
    const KVCache chunk_kv =
        cache ? cache->SliceTokens(ranges[i].begin, ranges[i].end)
              : llm_->PrefillRange(ctx, ranges[i].begin, ranges[i].end);
    for (size_t lv = 0; lv < levels.size(); ++lv) {
      const EncodedChunk enc = encoders_[lv]->EncodeChunk(
          chunk_kv, static_cast<uint32_t>(i), ranges[i].begin, /*threads=*/0,
          layered ? &recon : nullptr);
      encoded.emplace_back(
          ChunkKey{context_id, static_cast<uint32_t>(i), levels[lv].id},
          SerializeChunk(enc));
      cp.bytes_per_level[lv] =
          static_cast<double>(enc.WireBytes()) * model_.size_scale();
      if (layered) {
        cp.enh_bytes_per_level[lv] =
            layered_[lv]->EstimateEnhancementBytes(chunk_kv, recon) *
            model_.size_scale();
      }
    }
    plan.chunks.push_back(std::move(cp));
  }
  if (covered_count > 0) {
    CG_METRIC_COUNT("engine.encode.skipped_chunks", covered_count);
    CG_METRIC_COUNT("engine.encode.skipped_bytes", skipped_bytes);
  }
  PutEncodedBatch(*store_, context_id, encoded);
  return plan;
}

std::optional<EncodedChunk> Engine::GetKV(const std::string& context_id,
                                          uint32_t chunk, int level) const {
  const auto bytes = store_->Get({context_id, chunk, level});
  if (!bytes) return std::nullopt;
  return ParseChunk(*bytes);
}

void Engine::StoreLayeredKV(const std::string& context_id, const ContextSpec& ctx,
                            int base_level) {
  const KVCache cache = CalculateKV(ctx);
  const LayeredEncoder& codec = LayeredFor(base_level);
  const auto ranges = SplitIntoChunks(ctx.num_tokens, opts_.chunk_tokens);
  std::vector<std::pair<ChunkKey, std::vector<uint8_t>>> encoded;
  encoded.reserve(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    const KVCache chunk_kv = cache.SliceTokens(ranges[i].begin, ranges[i].end);
    const LayeredChunk lc =
        codec.Encode(chunk_kv, static_cast<uint32_t>(i), ranges[i].begin);
    encoded.emplace_back(
        ChunkKey{context_id, static_cast<uint32_t>(i), LayeredLevelKey(base_level)},
        SerializeLayeredChunk(lc));
  }
  PutEncodedBatch(*store_, context_id, encoded);
}

std::optional<LayeredChunk> Engine::GetLayeredKV(const std::string& context_id,
                                                 uint32_t chunk,
                                                 int base_level) const {
  const auto bytes = store_->Get({context_id, chunk, LayeredLevelKey(base_level)});
  if (!bytes) return std::nullopt;
  return ParseLayeredChunk(*bytes);
}

KVCache Engine::AssembleKV(const std::string& context_id, const ContextSpec& ctx,
                           const std::vector<int>& level_per_chunk) const {
  const auto ranges = SplitIntoChunks(ctx.num_tokens, opts_.chunk_tokens);
  if (ranges.size() != level_per_chunk.size()) {
    throw std::invalid_argument("Engine::AssembleKV: decision count mismatch");
  }
  KVCache out;
  for (size_t i = 0; i < ranges.size(); ++i) {
    const int level = level_per_chunk[i];
    if (level < 0) {
      // Text fallback: recompute this chunk's KV exactly (§5.3).
      out.AppendTokens(llm_->PrefillRange(ctx, ranges[i].begin, ranges[i].end));
      continue;
    }
    const auto enc = GetKV(context_id, static_cast<uint32_t>(i), level);
    if (!enc) {
      throw std::runtime_error("Engine::AssembleKV: missing chunk in store");
    }
    out.AppendTokens(DecoderFor(level).DecodeChunk(*enc));
  }
  return out;
}

GenerateResult Engine::GenerateWithKV(const ContextSpec& ctx, double quality) const {
  GenerateResult out;
  out.quality = quality;
  // Deterministic correctness draw: the same context and quality always
  // reproduce the same outcome (useful for the Fig. 17-style demo).
  Rng rng(ctx.seed ^ 0xD06F00DULL);
  out.correct = rng.NextDouble() < quality;
  const std::string topic = "topic-" + std::to_string(ctx.seed % 97);
  out.text = out.correct
                 ? "The first topic we discussed was " + topic + "."
                 : "The first topic we discussed was topic-" +
                       std::to_string((ctx.seed + 31) % 97) + ".";
  return out;
}

const CodecCalibration& Engine::calibration() {
  std::call_once(calibration_once_, [this] { BuildCalibration(); });
  return *calibration_;
}

void Engine::BuildCalibration() {
  CodecCalibration calib;
  // Validation context disjoint from the profiling set.
  ContextSpec val;
  val.seed = 0xBEEFCAFEULL;
  val.num_tokens = std::min<size_t>(opts_.chunk_tokens, 1500);
  const KVCache cache = llm_->Prefill(val);

  const auto& levels = DefaultEncodingLevels();
  calib.bytes_per_token_per_level.resize(levels.size());
  calib.quality_per_level.resize(levels.size());
  KVCache recon;
  for (size_t lv = 0; lv < levels.size(); ++lv) {
    const EncodedChunk enc =
        encoders_[lv]->EncodeChunk(cache, 0, 0, /*threads=*/0, &recon);
    calib.bytes_per_token_per_level[lv] =
        static_cast<double>(enc.WireBytes()) * model_.size_scale() /
        static_cast<double>(val.num_tokens);
    calib.quality_per_level[lv] = quality_.QualityFromKV(cache, recon);
  }

  // Layered calibration (§9): per base level, the enhancement-layer size and
  // the quality the enhancement lifts that base to. A shorter validation
  // slice keeps the scalar residual coder off the critical path.
  if (opts_.layered_calib_tokens > 0) {
    const size_t lt = std::min(opts_.layered_calib_tokens, val.num_tokens);
    const KVCache lcache = cache.SliceTokens(0, lt);
    calib.enh_bytes_per_token_per_level.resize(levels.size());
    calib.quality_enhanced_per_level.resize(levels.size());
    for (size_t lv = 0; lv < levels.size(); ++lv) {
      const LayeredChunk lc = layered_[lv]->Encode(lcache);
      const KVCache full = layered_[lv]->DecodeFull(lc);
      calib.enh_bytes_per_token_per_level[lv] =
          static_cast<double>(lc.enhancement.size()) * model_.size_scale() /
          static_cast<double>(lt);
      calib.quality_enhanced_per_level[lv] = quality_.QualityFromKV(lcache, full);
    }
  }
  for (int bits : {3, 4, 8}) {
    const QuantBaseline qb(bits);
    const QuantBaselineResult r = qb.Apply(cache);
    calib.quant_bytes_per_token[bits] =
        QuantBaseline::Bytes(model_, val.num_tokens, bits) /
        static_cast<double>(val.num_tokens);
    calib.quant_quality[bits] = quality_.QualityFromKV(cache, r.recon);
  }
  calibration_ = std::move(calib);
}

TTFTModel Engine::MakeTTFTModel() {
  return TTFTModel(cost_, model_, calibration(), opts_.chunk_tokens);
}

ContextPlan Engine::PlanFromCalibration(size_t tokens) {
  const CodecCalibration& calib = calibration();
  ContextPlan plan;
  plan.total_tokens = tokens;
  plan.quality_per_level = calib.quality_per_level;
  plan.quality_enhanced_per_level = calib.quality_enhanced_per_level;
  plan.text_bytes_per_token = calib.text_bytes_per_token;
  for (const ChunkRange& range : SplitIntoChunks(tokens, opts_.chunk_tokens)) {
    ChunkPlan cp;
    cp.range = range;
    cp.bytes_per_level.reserve(calib.bytes_per_token_per_level.size());
    for (double bpt : calib.bytes_per_token_per_level) {
      cp.bytes_per_level.push_back(bpt * static_cast<double>(range.size()));
    }
    cp.enh_bytes_per_level.reserve(calib.enh_bytes_per_token_per_level.size());
    for (double bpt : calib.enh_bytes_per_token_per_level) {
      cp.enh_bytes_per_level.push_back(bpt * static_cast<double>(range.size()));
    }
    plan.chunks.push_back(std::move(cp));
  }
  return plan;
}

}  // namespace cachegen
