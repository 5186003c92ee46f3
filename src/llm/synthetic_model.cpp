#include "llm/synthetic_model.h"

#include <cmath>
#include <stdexcept>

#include "common/parallel_for.h"

namespace cachegen {

namespace {

// Counter-based noise: one well-mixed u64 per (seed, layer, channel, token),
// turned into an approximately standard-normal variate via a two-uniform
// Irwin-Hall sum. Counter-based generation keeps PrefillRange independent of
// where the range starts.
inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 0x632be59bd9b4e019ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline double NoiseGaussian(uint64_t h) {
  const double u1 = static_cast<double>(h >> 32) * 0x1.0p-32;
  const double u2 = static_cast<double>(h & 0xFFFFFFFFu) * 0x1.0p-32;
  return (u1 + u2 - 1.0) * 2.4494897427831781;  // sqrt(6): unit variance
}

}  // namespace

uint32_t ContextTokenAt(const ContextSpec& ctx, size_t i) {
  const bool in_prefix = i < std::min(ctx.prefix_tokens, ctx.num_tokens);
  const uint64_t seed = in_prefix ? ctx.prefix_seed : ctx.seed;
  return static_cast<uint32_t>(Mix(seed, 0x70CEA500ULL + i));
}

std::vector<uint32_t> ContextTokenIds(const ContextSpec& ctx) {
  std::vector<uint32_t> ids(ctx.num_tokens);
  for (size_t i = 0; i < ctx.num_tokens; ++i) ids[i] = ContextTokenAt(ctx, i);
  return ids;
}

SyntheticModel::SyntheticModel(const ModelConfig& config, uint64_t model_seed)
    : config_(config), model_seed_(model_seed) {
  if (config_.num_layers == 0 || config_.sim_channels == 0) {
    throw std::invalid_argument("SyntheticModel: empty model geometry");
  }
  const size_t L = config_.num_layers;
  const size_t C = config_.sim_channels;
  params_.resize(L * C);
  Rng rng(Mix(model_seed_, 0xC0FFEE));
  // Persistent per-channel magnitude factor, shared by all layers: real
  // transformer channels keep an identity across depth (some channels are
  // systematically hot), which is what makes Fig. 5's grouping-by-channel
  // informative even when pooling across layers.
  std::vector<double> chan_factor(C);
  for (size_t c = 0; c < C; ++c) chan_factor[c] = rng.LogNormal(0.0, 0.5);
  for (size_t l = 0; l < L; ++l) {
    // Per-layer base magnitude: different layers live on different scales
    // (paper footnote 3), which is what makes grouping by layer informative.
    const double frac = static_cast<double>(l) / static_cast<double>(L);
    const double base = 0.3 + 0.5 * (1.0 + 0.9 * std::sin(2.0 * M_PI * frac + 1.3));
    for (size_t c = 0; c < C; ++c) {
      ChannelParams& p = params_[l * C + c];
      // Channels differ mostly in *scale* (what per-channel AC models and
      // vectorwise quantization exploit, Insight 3), plus a moderate mean
      // offset.
      const double med = base * chan_factor[c];
      p.scale_k = static_cast<float>(rng.LogNormal(std::log(med), 0.55));
      p.scale_v = static_cast<float>(rng.LogNormal(std::log(med), 0.55));
      p.mean_k = static_cast<float>(rng.Gaussian(0.0, 0.4 * p.scale_k));
      p.mean_v = static_cast<float>(rng.Gaussian(0.0, 0.4 * p.scale_v));
      // Token locality is heterogeneous: most channels are strongly
      // autocorrelated, a minority are fast-moving. The mixture pools to the
      // moderate delta-variance reduction Fig. 3 reports while leaving most
      // channels highly delta-compressible.
      p.rho = static_cast<float>(rng.NextDouble() < 0.75 ? rng.Uniform(0.93, 0.99)
                                                         : rng.Uniform(0.40, 0.70));
    }
  }
}

KVCache SyntheticModel::Prefill(const ContextSpec& ctx) const {
  return PrefillRange(ctx, 0, ctx.num_tokens);
}

KVCache SyntheticModel::PrefillRange(const ContextSpec& ctx, size_t begin,
                                     size_t end) const {
  if (begin > end || end > ctx.num_tokens) {
    throw std::out_of_range("SyntheticModel::PrefillRange: bad token range");
  }
  KVCache cache(config_.num_layers, end - begin, config_.sim_channels);
  // One task per layer: every (layer, channel) is its own AR(1) stream, and a
  // layer's task writes only that layer's tensors.
  ParallelFor(config_.num_layers,
              [&](size_t l) { FillLayer(ctx, l, cache.layer(l), begin, end); });
  return cache;
}

void SyntheticModel::PrefillLayer(const ContextSpec& ctx, size_t layer,
                                  KVLayer& out) const {
  if (layer >= config_.num_layers) {
    throw std::out_of_range("SyntheticModel::PrefillLayer: bad layer");
  }
  out.k.Reshape(ctx.num_tokens, config_.sim_channels);
  out.v.Reshape(ctx.num_tokens, config_.sim_channels);
  FillLayer(ctx, layer, out, 0, ctx.num_tokens);
}

void SyntheticModel::FillLayer(const ContextSpec& ctx, size_t l, KVLayer& out,
                               size_t begin, size_t end) const {
  const size_t pt = std::min(ctx.prefix_tokens, ctx.num_tokens);
  if (pt == 0) {
    FillPlainLayer(l, out, 0, ctx.seed, ctx.num_tokens, begin, end);
    return;
  }
  // Composed context: the prefix span is generated exactly as the standalone
  // family context {prefix_seed, pt} — bit-identical across every member —
  // and the suffix from the member's own seed over its absolute positions.
  if (begin < pt) {
    FillPlainLayer(l, out, 0, ctx.prefix_seed, pt, begin, std::min(end, pt));
  }
  if (end > pt) {
    const size_t sfx_begin = std::max(begin, pt);
    FillPlainLayer(l, out, sfx_begin - begin, ctx.seed, ctx.num_tokens,
                   sfx_begin, end);
  }
}

void SyntheticModel::FillPlainLayer(size_t l, KVLayer& out, size_t row_offset,
                                    uint64_t seed, size_t T, size_t begin,
                                    size_t end) const {
  const size_t C = config_.sim_channels;
  Tensor& K = out.k;
  Tensor& V = out.v;
  for (size_t c = 0; c < C; ++c) {
    const ChannelParams& p = Params(l, c);
    const uint64_t chan_key = Mix(model_seed_, (l << 20) | c);
    // Context-specific offset and slow drift: shared-across-contexts AC
    // tables must absorb these for raw values, but deltas cancel them.
    const uint64_t ctx_key = Mix(seed, chan_key);
    const double off_k = NoiseGaussian(Mix(ctx_key, 1)) * 0.8 * p.scale_k;
    const double off_v = NoiseGaussian(Mix(ctx_key, 2)) * 0.8 * p.scale_v;
    const double slope_k = NoiseGaussian(Mix(ctx_key, 3)) * 0.5 * p.scale_k;
    const double slope_v = NoiseGaussian(Mix(ctx_key, 4)) * 0.5 * p.scale_v;

    // AR(1) along tokens; run from t=0 so any [begin,end) slice matches
    // the full prefill exactly (the self-attention analogy: each token's
    // KV depends on all preceding tokens).
    const double rho = p.rho;
    const double innov = std::sqrt(1.0 - rho * rho);
    double yk = 0.0, yv = 0.0;
    for (size_t t = 0; t < end; ++t) {
      const double ek = NoiseGaussian(Mix(ctx_key, 0x1000 + 2 * t));
      const double ev = NoiseGaussian(Mix(ctx_key, 0x1000 + 2 * t + 1));
      if (t == 0) {
        yk = ek;
        yv = ev;
      } else {
        yk = rho * yk + innov * ek;
        yv = rho * yv + innov * ev;
      }
      if (t >= begin) {
        const double pos = T > 1 ? 2.0 * static_cast<double>(t) /
                                           static_cast<double>(T - 1) -
                                       1.0
                                 : 0.0;
        K.At(row_offset + t - begin, c) =
            static_cast<float>(p.mean_k + off_k + slope_k * pos +
                               p.scale_k * yk);
        V.At(row_offset + t - begin, c) =
            static_cast<float>(p.mean_v + off_v + slope_v * pos +
                               p.scale_v * yv);
      }
    }
  }
}

std::vector<double> SyntheticModel::TokenImportance(const ContextSpec& ctx) const {
  std::vector<double> w(ctx.num_tokens, 0.0);
  if (ctx.num_tokens == 0) return w;
  double total = 0.0;
  const size_t T = ctx.num_tokens;
  for (size_t t = 0; t < T; ++t) {
    // Heavy-tailed per-token attention mass (heavy hitters, as H2O [153]
    // observes) with a mild recency boost.
    const double g = NoiseGaussian(Mix(ctx.seed, 0xA77E0000ULL + t));
    const double recency = 1.0 + 1.0 * static_cast<double>(t) / static_cast<double>(T);
    w[t] = std::exp(1.6 * g) * recency;
    total += w[t];
  }
  for (auto& x : w) x /= total;
  return w;
}

}  // namespace cachegen
