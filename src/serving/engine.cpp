#include "serving/engine.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "baselines/quant_baseline.h"
#include "common/parallel_for.h"
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
      llm_(std::make_unique<SyntheticModel>(model_)),
      store_(store ? std::move(store) : std::make_shared<MemoryKVStore>()) {
  BuildProfile();
  const auto& levels = DefaultEncodingLevels();
  encoders_.resize(levels.size());
  decoders_.resize(levels.size());
  layered_.resize(levels.size());
  for (size_t i = 0; i < levels.size(); ++i) {
    auto tables =
        std::make_shared<TableSet>(*profile_, levels[i], CodecOptions{});
    encoders_[i] = std::make_unique<KVEncoder>(profile_, tables);
    decoders_[i] = std::make_unique<KVDecoder>(profile_, tables);
    layered_[i] = std::make_unique<LayeredEncoder>(profile_, tables, levels[i]);
  }
}

void Engine::BuildProfile() {
  // Offline profiling pass (§5.2): a handful of calibration contexts from
  // the same model; distributions are reused for every later context. One
  // pool task per layer prefills that layer of every context and profiles
  // it, so no calibration context is ever held whole.
  profile_ = std::make_shared<KVProfile>(KVProfile::BuildByLayer(
      model_, opts_.calib_num_contexts,
      [this](size_t layer, size_t i, KVLayer& out) {
        llm_->PrefillLayer({0xCA11B000ULL + i * 97ULL, opts_.calib_context_tokens},
                           layer, out);
      }));
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

void Engine::StoreKV(const std::string& context_id, const ContextSpec& ctx) {
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

  // Encode everything first, persist in one PutBatch at the end: the store
  // makes the whole context visible atomically, so a concurrent lookup (or a
  // mid-write failure) never observes a half-written context. Deliberate
  // trade: the full encoded context (~1.5 KB/token across the ladder) sits
  // in memory until the batch lands — it buys atomicity exactly on the
  // concurrent sharded/tiered stores the cluster serves from; plain
  // Memory/File stores just run the base class's Put loop.
  // One prefill serves every chunk left to encode: PrefillRange over the
  // span of chunks [lo, hi) from the first uncovered chunk to the last. It
  // equals that slice of the full prefill, so each chunk cut from it is
  // bit-identical, and the AR(1) runs from token 0 once rather than once per
  // chunk. A fully covered context touches no GPU at all — the store call
  // degenerates to a registration.
  size_t lo = ranges.size(), hi = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (!covered[i]) {
      lo = std::min(lo, i);
      hi = i + 1;
    }
  }
  const size_t span_begin = lo < hi ? ranges[lo].begin : 0;
  const KVCache span_kv =
      lo < hi ? llm_->PrefillRange(ctx, span_begin, ranges[hi - 1].end) : KVCache();

  std::vector<std::pair<ChunkKey, std::vector<uint8_t>>> encoded;
  encoded.reserve((ranges.size() - covered_count) * levels.size());
  uint64_t skipped_bytes = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (covered[i]) {
      // The skipped bytes are counted at their calibrated size: the stored
      // bitstreams exist but are never rematerialized here.
      const double tokens = static_cast<double>(ranges[i].size());
      for (const double bpt : calibration().bytes_per_token_per_level) {
        skipped_bytes += static_cast<uint64_t>(bpt * tokens);
      }
      continue;
    }
    const KVCache chunk_kv = span_kv.SliceTokens(ranges[i].begin - span_begin,
                                                 ranges[i].end - span_begin);
    for (size_t lv = 0; lv < levels.size(); ++lv) {
      encoded.emplace_back(
          ChunkKey{context_id, static_cast<uint32_t>(i), levels[lv].id},
          SerializeChunk(encoders_[lv]->EncodeChunk(
              chunk_kv, static_cast<uint32_t>(i), ranges[i].begin)));
    }
  }
  if (covered_count > 0) {
    CG_METRIC_COUNT("engine.encode.skipped_chunks", covered_count);
    CG_METRIC_COUNT("engine.encode.skipped_bytes", skipped_bytes);
  }
  PutEncodedBatch(*store_, context_id, encoded);
}

std::optional<EncodedChunk> Engine::GetKV(const std::string& context_id,
                                          uint32_t chunk, int level) const {
  const auto bytes = store_->Get({context_id, chunk, level});
  if (!bytes) return std::nullopt;
  return ParseChunk(*bytes);
}

KVCache Engine::AssembleKV(const std::string& context_id, const ContextSpec& ctx,
                           const std::vector<int>& level_per_chunk) const {
  KVCache out;
  AssembleKV(context_id, ctx, level_per_chunk, out);
  return out;
}

void Engine::AssembleKV(const std::string& context_id, const ContextSpec& ctx,
                        const std::vector<int>& level_per_chunk,
                        KVCache& out) const {
  const auto ranges = SplitIntoChunks(ctx.num_tokens, opts_.chunk_tokens);
  if (ranges.size() != level_per_chunk.size()) {
    throw std::invalid_argument("Engine::AssembleKV: decision count mismatch");
  }
  out.Reshape(model_.num_layers, ctx.num_tokens, model_.sim_channels);
  for (size_t i = 0; i < ranges.size(); ++i) {
    const ChunkRange& range = ranges[i];
    const int level = level_per_chunk[i];
    if (level < 0) {
      // Text fallback: recompute this chunk's KV exactly (§5.3).
      const KVCache text = llm_->PrefillRange(ctx, range.begin, range.end);
      for (size_t l = 0; l < text.num_layers(); ++l) {
        std::ranges::copy(text.layer(l).k.Data(),
                          out.layer(l).k.Row(range.begin).data());
        std::ranges::copy(text.layer(l).v.Data(),
                          out.layer(l).v.Row(range.begin).data());
      }
      continue;
    }
    const auto enc = GetKV(context_id, static_cast<uint32_t>(i), level);
    if (!enc) {
      throw std::runtime_error("Engine::AssembleKV: missing chunk in store");
    }
    // A short chunk would leave rows of the buffer's previous context here.
    if (enc->num_tokens != range.size()) {
      throw std::runtime_error("Engine::AssembleKV: chunk token count mismatch");
    }
    DecoderFor(level).DecodeChunkInto(*enc, out, range.begin);
  }
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
  const double tokens = static_cast<double>(val.num_tokens);
  const size_t num_levels = DefaultEncodingLevels().size();

  // One pool task per measurement, each writing only its own slot; the
  // codec's own ParallelFors run inline inside a task. Every result is a
  // pure function of its inputs, so the calibration is bit-identical at any
  // pool size.
  std::vector<std::function<void()>> tasks;
  calib.bytes_per_token_per_level.resize(num_levels);
  calib.quality_per_level.resize(num_levels);
  for (size_t lv = 0; lv < num_levels; ++lv) {
    tasks.emplace_back([&, lv] {
      KVCache recon;
      const EncodedChunk enc =
          encoders_[lv]->EncodeChunk(cache, 0, 0, /*threads=*/0, &recon);
      calib.bytes_per_token_per_level[lv] =
          static_cast<double>(enc.WireBytes()) * model_.size_scale() / tokens;
      calib.quality_per_level[lv] = quality_.QualityFromKV(cache, recon);
    });
  }

  // Layered calibration (§9): per base level, the enhancement-layer size and
  // the quality the enhancement lifts that base to. A shorter validation
  // slice keeps the scalar residual coder off the critical path.
  const size_t lt = std::min(opts_.layered_calib_tokens, val.num_tokens);
  const KVCache lcache =
      opts_.layered_calib_tokens > 0 ? cache.SliceTokens(0, lt) : KVCache();
  if (opts_.layered_calib_tokens > 0) {
    calib.enh_bytes_per_token_per_level.resize(num_levels);
    calib.quality_enhanced_per_level.resize(num_levels);
    for (size_t lv = 0; lv < num_levels; ++lv) {
      tasks.emplace_back([&, lv] {
        KVCache full;
        const LayeredChunk lc =
            layered_[lv]->Encode(lcache, 0, 0, /*full_recon=*/&full);
        calib.enh_bytes_per_token_per_level[lv] =
            static_cast<double>(lc.enhancement.size()) * model_.size_scale() /
            static_cast<double>(lt);
        calib.quality_enhanced_per_level[lv] = quality_.QualityFromKV(lcache, full);
      });
    }
  }

  for (const int bits : {3, 4, 8}) {
    calib.quant_bytes_per_token[bits] =
        QuantBaseline::Bytes(model_, val.num_tokens, bits) / tokens;
    // The map entry is inserted here, before the fan-out; the task writes
    // only its value.
    tasks.emplace_back([&, bits, &quality = calib.quant_quality[bits]] {
      const QuantBaselineResult r = QuantBaseline(bits).Apply(cache);
      quality = quality_.QualityFromKV(cache, r.recon);
    });
  }

  ParallelFor(tasks.size(), [&](size_t i) { tasks[i](); });
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
