// Engine: the inference-server facade tying the substrate together. Exposes
// the two interfaces CacheGen adds to an LLM serving stack (§6) —
// calculate_kv and generate_with_kv — plus the storage-side store_kv /
// get_kv pair, offline codec calibration, and a simulated answer generator
// for the end-to-end examples (Fig. 17).
#pragma once

#include <memory>
#include <mutex>  // std::once_flag
#include <optional>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/kv_decoder.h"
#include "codec/kv_encoder.h"
#include "llm/cost_model.h"
#include "llm/quality_model.h"
#include "llm/synthetic_model.h"
#include "serving/ttft.h"
#include "storage/kv_store.h"
#include "streamer/chunking.h"

namespace cachegen {

struct GenerateResult {
  std::string text;
  bool correct = false;
  double quality = 1.0;
};

class Engine {
 public:
  struct Options {
    std::string model_name = "mistral-7b";
    uint64_t model_seed = 0x5eed;
    size_t chunk_tokens = kDefaultChunkTokens;
    size_t calib_context_tokens = 1200;
    size_t calib_num_contexts = 10;
    CodecOptions codec;
    // Layered (§9 progressive streaming) extension: residual bin width of
    // the enhancement layer, and the validation-slice length used to
    // calibrate per-level enhancement sizes and enhanced quality.
    double fine_bin_sigma = 0.25;
    size_t layered_calib_tokens = 512;
  };

  // `store` is any KVStore implementation: MemoryKVStore (default),
  // FileKVStore, the cluster's ShardedKVStore, or a TieredKVStore — the
  // tiered path gives store_kv/get_kv a hot-RAM/cold-disk hierarchy with
  // the cluster pinning/promoting through the tiered interface.
  Engine() : Engine(Options{}) {}
  explicit Engine(Options opts, std::shared_ptr<KVStore> store = nullptr);

  const ModelConfig& model() const { return model_; }
  const SyntheticModel& llm() const { return *llm_; }
  const CostModel& cost() const { return cost_; }
  const QualityModel& quality_model() const { return quality_; }
  std::shared_ptr<const KVProfile> profile() const { return profile_; }
  KVStore& store() { return *store_; }
  const Options& options() const { return opts_; }

  // calculate_kv(context) -> KVCache (§6): run prefill over the context.
  KVCache CalculateKV(const ContextSpec& ctx) const;

  // store_kv (§6): prefill, chunk, encode at every level, persist to the
  // store under `context_id`. Returns the streaming plan (per-chunk sizes at
  // every level, per-level quality factors; with a layered calibration the
  // plan also carries estimated per-chunk enhancement sizes, so it can drive
  // StreamMode::kProgressive directly).
  ContextPlan StoreKV(const std::string& context_id, const ContextSpec& ctx);

  // get_kv (§6): fetch one chunk's bitstream at one level.
  std::optional<EncodedChunk> GetKV(const std::string& context_id, uint32_t chunk,
                                    int level) const;

  // Layered store_kv/get_kv pair (§9 progressive streaming): prefill, chunk,
  // encode base + enhancement at `base_level`, persist the layered container
  // under LayeredLevelKey(base_level). A request can then stream the base now
  // and the enhancement when slack remains.
  void StoreLayeredKV(const std::string& context_id, const ContextSpec& ctx,
                      int base_level);
  std::optional<LayeredChunk> GetLayeredKV(const std::string& context_id,
                                           uint32_t chunk, int base_level) const;

  // Reassemble a context's KV from per-chunk streaming decisions: encoded
  // chunks are fetched from the store and decoded; text chunks are
  // recomputed with PrefillRange (bit-exact).
  KVCache AssembleKV(const std::string& context_id, const ContextSpec& ctx,
                     const std::vector<int>& level_per_chunk) const;  // -1 = text
  // Same, into a caller-owned buffer: `out` is reshaped once to the
  // context's shape and every chunk is decoded (or copied) in place at its
  // first token, so a buffer reused across contexts is not reallocated once
  // it has held the largest. A fetched chunk whose token count differs from
  // its range's throws std::runtime_error, as a missing one does.
  void AssembleKV(const std::string& context_id, const ContextSpec& ctx,
                  const std::vector<int>& level_per_chunk, KVCache& out) const;

  // generate_with_kv (§6): simulated generation given a loaded KV cache of
  // quality factor `quality`; answer correctness is deterministic in
  // (context seed, quality threshold).
  GenerateResult GenerateWithKV(const ContextSpec& ctx, double quality) const;

  // Offline codec calibration (lazy, cached): per-level sizes/quality and
  // the quantization baseline curve, feeding TTFTModel and the benches.
  // Safe to call from multiple threads; the first caller pays the cost.
  const CodecCalibration& calibration();

  TTFTModel MakeTTFTModel();

  // Streaming plan for a context of `tokens`, priced from the codec
  // calibration instead of re-encoding — what the cluster and the sweeps use
  // when only sizes and quality factors matter (thread-safe).
  ContextPlan PlanFromCalibration(size_t tokens);

  // Encoder/decoder for a given level id (shared TableSets). The full ladder
  // is built at construction and never mutated afterwards, so these are safe
  // to call concurrently from cluster workers sharing one Engine.
  const KVEncoder& EncoderFor(int level) const;
  const KVDecoder& DecoderFor(int level) const;
  // Layered codec whose base layer is encoded at `level` (same TableSets).
  const LayeredEncoder& LayeredFor(int level) const;

 private:
  void BuildProfile();
  void BuildCalibration();

  Options opts_;
  ModelConfig model_;
  std::unique_ptr<SyntheticModel> llm_;
  CostModel cost_;
  QualityModel quality_;
  std::shared_ptr<KVStore> store_;
  std::shared_ptr<const KVProfile> profile_;
  std::vector<std::unique_ptr<KVEncoder>> encoders_;
  std::vector<std::unique_ptr<KVDecoder>> decoders_;
  std::vector<std::unique_ptr<LayeredEncoder>> layered_;
  std::once_flag calibration_once_;
  std::optional<CodecCalibration> calibration_;
};

}  // namespace cachegen
