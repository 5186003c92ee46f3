// SyntheticModel: a deterministic stand-in for a transformer's prefill that
// produces KV caches exhibiting the three empirical properties CacheGen's
// codec exploits (paper §5.1):
//
//  Insight 1 (token-wise locality): per (layer, channel), values follow a
//  stationary AR(1) process along the token axis with correlation
//  rho in [0.80, 0.95], so consecutive-token deltas have 2-3x lower variance
//  than the values themselves (paper: 2.4-2.9x).
//
//  Insight 2 (layer-wise sensitivity): handled by QualityModel, which weighs
//  reconstruction error by an exponentially decaying layer weight.
//
//  Insight 3 (channel/layer grouping): each (layer, channel) pair has its
//  own persistent mean and scale drawn from the *model* seed — identical for
//  every context the model processes, which is precisely what makes
//  CacheGen's offline per-(channel,layer) probability profiling effective.
//  Contexts additionally carry per-channel offsets and slow drift, which
//  inflate the spread of raw values under any table shared across contexts
//  but cancel in token deltas — the reason change-based encoding helps even
//  on top of per-channel AC models (paper Fig. 15).
//
// Generation is deterministic in (model seed, context seed, token range), so
// "recomputing the KV from text" (the streamer's fallback configuration)
// reproduces exactly the tensors that encoding started from.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "llm/model_config.h"
#include "tensor/kv_cache.h"

namespace cachegen {

// A context to be prefilled: identified by a seed (stands in for the text)
// and a token count.
//
// Shared-prefix composition: when prefix_tokens > 0, the first prefix_tokens
// tokens are the *prefix family's* content — generated exactly as the
// standalone context {prefix_seed, prefix_tokens} would be, so every family
// member's prefix KV (and surrogate token ids) is bit-identical regardless
// of the member's total length. That identity is what makes the prefix
// subsystem's content-addressed chunk dedup sound: two tenants sharing an
// 8k-token system prompt produce byte-identical prefix bitstreams. The
// remaining tokens [prefix_tokens, num_tokens) are the member's own suffix,
// generated from `seed`.
struct ContextSpec {
  uint64_t seed = 0;
  size_t num_tokens = 0;
  uint64_t prefix_seed = 0;
  size_t prefix_tokens = 0;  // 0 = no shared prefix (plain context)
};

// Deterministic surrogate token ids ("the text") for a context. Token i of a
// composed context comes from the prefix family's stream when
// i < prefix_tokens, so family members agree token-for-token over the shared
// span — the identity the radix prefix index matches on.
uint32_t ContextTokenAt(const ContextSpec& ctx, size_t i);
std::vector<uint32_t> ContextTokenIds(const ContextSpec& ctx);

class SyntheticModel {
 public:
  explicit SyntheticModel(const ModelConfig& config, uint64_t model_seed = 0x5eed);

  const ModelConfig& config() const { return config_; }

  // Full prefill: KV cache over all tokens of the context.
  KVCache Prefill(const ContextSpec& ctx) const;

  // Prefill restricted to tokens [begin, end) — the unit the streamer
  // recomputes when a chunk is sent as text. Bit-identical to the
  // corresponding slice of Prefill(ctx).
  KVCache PrefillRange(const ContextSpec& ctx, size_t begin, size_t end) const;

  // One layer of Prefill(ctx), bit-identical to Prefill(ctx).layer(layer),
  // written into `out` (reshaped to num_tokens x channels, keeping its
  // allocations). Runs on the calling thread.
  void PrefillLayer(const ContextSpec& ctx, size_t layer, KVLayer& out) const;

  // Per-token attention importance for the context (sums to 1): a Zipf-like
  // heavy-hitter profile with a recency boost, used by the token-dropping
  // baselines (H2O, Scissorhands) and by QualityModel.
  std::vector<double> TokenImportance(const ContextSpec& ctx) const;

 private:
  struct ChannelParams {
    float mean_k, mean_v;
    float scale_k, scale_v;
    float rho;
  };

  // Tokens [begin, end) of layer `l` of `ctx` into rows [0, end - begin) of
  // `out`: the prefix and suffix segments composed out of FillPlainLayer.
  void FillLayer(const ContextSpec& ctx, size_t l, KVLayer& out, size_t begin,
                 size_t end) const;

  // Generate tokens [begin, end) of layer `l` of the PLAIN context (seed, T)
  // into rows of `out` starting at row_offset.
  void FillPlainLayer(size_t l, KVLayer& out, size_t row_offset, uint64_t seed,
                      size_t T, size_t begin, size_t end) const;

  const ChannelParams& Params(size_t layer, size_t channel) const {
    return params_[layer * config_.sim_channels + channel];
  }

  ModelConfig config_;
  uint64_t model_seed_;
  std::vector<ChannelParams> params_;  // layer-major
};

}  // namespace cachegen
