#include "codec/profile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel_for.h"
#include "common/stats.h"

namespace cachegen {

namespace {
constexpr size_t kAnchorBins = 2 * KVProfile::kAnchorMaxSym + 1;  // 255
constexpr size_t kBodyAlphabet = 2 * KVProfile::kDeltaMaxSym + 1;  // 129

inline size_t HistBinOf(double normalized) {
  const double pos = (normalized + KVProfile::kHistRange) /
                     (2.0 * KVProfile::kHistRange) * KVProfile::kHistBins;
  // In range the bin is the integer part, the same as the general path
  // below; this skips its lround, a libm call, for nearly every value.
  if (pos >= 0.0 && pos < KVProfile::kHistBins) return static_cast<size_t>(pos);
  const long b = std::lround(std::floor(pos));
  return static_cast<size_t>(
      std::clamp(b, 0L, static_cast<long>(KVProfile::kHistBins - 1)));
}

inline double HistBinCenter(size_t bin) {
  return -KVProfile::kHistRange +
         (static_cast<double>(bin) + 0.5) * (2.0 * KVProfile::kHistRange) /
             KVProfile::kHistBins;
}
}  // namespace

uint8_t CodecOptions::Flags() const {
  uint8_t f = 0;
  if (delta_encoding) f |= 1;
  if (layerwise_bins) f |= 2;
  f |= static_cast<uint8_t>(granularity) << 2;
  if (anchor_mode == AnchorMode::kConsecutive) f |= 16;
  return f;
}

KVProfile KVProfile::Sized(const ModelConfig& cfg) {
  KVProfile p;
  p.num_layers_ = cfg.num_layers;
  p.num_channels_ = cfg.sim_channels;
  const size_t n = p.num_layers_ * p.num_channels_ * 2;
  p.stats_.assign(n, {});
  p.anchor_hist_.assign(n * kAnchorBins, 0);
  p.delta_hist_.assign(n * kHistBins, 0);
  p.raw_hist_.assign(n * kHistBins, 0);
  return p;
}

KVProfile KVProfile::Build(const ModelConfig& cfg,
                           std::span<const KVCache* const> caches,
                           size_t token_group_size) {
  if (caches.empty()) throw std::invalid_argument("KVProfile::Build: no caches");
  for (const KVCache* cache : caches) {
    if (cache == nullptr || cache->num_layers() != cfg.num_layers ||
        cache->num_channels() != cfg.sim_channels) {
      throw std::invalid_argument(
          "KVProfile::Build: cache geometry differs from the model's");
    }
  }
  KVProfile p = Sized(cfg);
  // One task per layer: a layer's statistics and histograms read only that
  // layer of each cache and write only that layer's slots, so the profile
  // is bit-identical at any pool size.
  ParallelFor(p.num_layers_, [&](size_t l) {
    std::vector<const KVLayer*> layers;
    layers.reserve(caches.size());
    for (const KVCache* cache : caches) layers.push_back(&cache->layer(l));
    p.ProfileLayer(l, layers, token_group_size);
  });
  return p;
}

KVProfile KVProfile::BuildByLayer(const ModelConfig& cfg, size_t num_caches,
                                  const LayerSource& fill,
                                  size_t token_group_size) {
  if (num_caches == 0) {
    throw std::invalid_argument("KVProfile::BuildByLayer: no caches");
  }
  KVProfile p = Sized(cfg);
  ParallelFor(p.num_layers_, [&](size_t l) {
    std::vector<KVLayer> filled(num_caches);
    std::vector<const KVLayer*> layers;
    layers.reserve(num_caches);
    for (size_t i = 0; i < num_caches; ++i) {
      fill(l, i, filled[i]);
      if (filled[i].k.cols() != cfg.sim_channels ||
          filled[i].v.cols() != cfg.sim_channels) {
        throw std::invalid_argument(
            "KVProfile::BuildByLayer: layer geometry differs from the model's");
      }
      layers.push_back(&filled[i]);
    }
    p.ProfileLayer(l, layers, token_group_size);
  });
  return p;
}

void KVProfile::ProfileLayer(size_t l, std::span<const KVLayer* const> layers,
                             size_t token_group_size) {
  // Rows run outer and channels inner, so the anchor test runs once per row,
  // and every (channel, kind) still sees its values in (cache, row) order:
  // the Welford sums are the same whichever thread runs the layer.
  const size_t C = num_channels_;
  const size_t base = Idx(l, 0, 0);  // slot (l, c, kind) is base + 2c + kind

  // Pass 1: scales.
  std::vector<RunningStats> raw(2 * C), delta(2 * C);
  std::vector<double> anchor_absmax(2 * C, 0.0);
  for (const KVLayer* layer : layers) {
    for (int kind = 0; kind < 2; ++kind) {
      const Tensor& t = kind == 0 ? layer->k : layer->v;
      for (size_t r = 0; r < t.rows(); ++r) {
        const std::span<const float> row = t.Row(r);
        if (IsAnchor(r, token_group_size)) {
          for (size_t c = 0, i = static_cast<size_t>(kind); c < C; ++c, i += 2) {
            const double x = row[c];
            raw[i].Add(x);
            anchor_absmax[i] = std::max(anchor_absmax[i], std::fabs(x));
          }
        } else {
          const std::span<const float> anchor = t.Row(AnchorOf(r, token_group_size));
          for (size_t c = 0, i = static_cast<size_t>(kind); c < C; ++c, i += 2) {
            const double x = row[c];
            raw[i].Add(x);
            delta[i].Add(x - anchor[c]);
          }
        }
      }
    }
  }
  for (size_t i = 0; i < 2 * C; ++i) {
    ChannelStats& s = stats_[base + i];
    s.raw_mean = raw[i].Mean();
    s.raw_std = std::max(raw[i].StdDev(), 1e-6);
    s.delta_std = std::max(delta[i].StdDev(), 1e-6);
    s.anchor_scale = std::max(anchor_absmax[i] * 1.02, 1e-6) /
                     static_cast<double>(kAnchorMaxSym);
  }

  // Pass 2: normalized histograms.
  for (const KVLayer* layer : layers) {
    for (int kind = 0; kind < 2; ++kind) {
      const Tensor& t = kind == 0 ? layer->k : layer->v;
      for (size_t r = 0; r < t.rows(); ++r) {
        const std::span<const float> row = t.Row(r);
        const bool is_anchor = IsAnchor(r, token_group_size);
        const std::span<const float> anchor = t.Row(AnchorOf(r, token_group_size));
        for (size_t c = 0; c < C; ++c) {
          const size_t idx = base + 2 * c + static_cast<size_t>(kind);
          const ChannelStats& s = stats_[idx];
          const double x = row[c];
          ++raw_hist_[idx * kHistBins + HistBinOf((x - s.raw_mean) / s.raw_std)];
          if (is_anchor) {
            const long sym = std::lround(x / s.anchor_scale);
            const long clamped = std::clamp(sym, -static_cast<long>(kAnchorMaxSym),
                                            static_cast<long>(kAnchorMaxSym));
            ++anchor_hist_[idx * kAnchorBins +
                           static_cast<size_t>(clamped + kAnchorMaxSym)];
          } else {
            // Deltas are histogrammed in RAW-sigma units: the bin widths
            // of the encoding levels are defined on the raw value scale so
            // that delta and no-delta modes quantize with identical error.
            const double d = x - anchor[c];
            ++delta_hist_[idx * kHistBins + HistBinOf(d / s.raw_std)];
          }
        }
      }
    }
  }
}

std::span<const uint64_t> KVProfile::AnchorHist(size_t l, size_t c, int kind) const {
  return {anchor_hist_.data() + Idx(l, c, kind) * kAnchorBins, kAnchorBins};
}
std::span<const uint64_t> KVProfile::DeltaHist(size_t l, size_t c, int kind) const {
  return {delta_hist_.data() + Idx(l, c, kind) * kHistBins,
          static_cast<size_t>(kHistBins)};
}
std::span<const uint64_t> KVProfile::RawHist(size_t l, size_t c, int kind) const {
  return {raw_hist_.data() + Idx(l, c, kind) * kHistBins,
          static_cast<size_t>(kHistBins)};
}

TableSet::TableSet(const KVProfile& profile, const EncodingLevel& level,
                   const CodecOptions& options)
    : level_(level),
      options_(options),
      num_layers_(profile.num_layers()),
      num_channels_(profile.num_channels()) {
  const EncodingLevel effective =
      options.layerwise_bins ? level : level.WithUniformBins();
  bins_per_layer_.resize(num_layers_);
  for (size_t l = 0; l < num_layers_; ++l) {
    bins_per_layer_[l] = effective.BinForLayer(l, num_layers_);
  }

  // Number of distinct tables per kind under the chosen granularity.
  size_t groups = 1;
  switch (options.granularity) {
    case ProfileGranularity::kGlobal: groups = 1; break;
    case ProfileGranularity::kPerLayer: groups = num_layers_; break;
    case ProfileGranularity::kPerChannelLayer: groups = num_layers_ * num_channels_; break;
  }

  // Quantizer normalization is granularity-INDEPENDENT, exactly mirroring
  // the paper's pipeline: body (delta / raw) values use one bin width per
  // layer (the layer group's bin times the layer's pooled raw sigma, §5.2),
  // while anchor tokens keep per-channel vectorwise 8-bit scales [48]. Every
  // granularity therefore produces the same reconstruction and differs only
  // in arithmetic-coding efficiency — the §7.5 comparison. Per-channel
  // tables win because channel-to-channel scale diversity survives in the
  // layer-normalized symbols.
  const size_t n = num_layers_ * num_channels_ * 2;
  body_sigma_.resize(n);
  body_mean_.resize(n);
  anchor_scale_.resize(n);
  std::vector<double> layer_sigma(num_layers_ * 2, 0.0);
  std::vector<double> layer_mean(num_layers_ * 2, 0.0);
  for (size_t l = 0; l < num_layers_; ++l) {
    for (int kind = 0; kind < 2; ++kind) {
      double power = 0.0, mean = 0.0;
      for (size_t c = 0; c < num_channels_; ++c) {
        const double s = profile.RawStd(l, c, kind);
        power += s * s;
        mean += profile.RawMean(l, c, kind);
      }
      layer_sigma[l * 2 + static_cast<size_t>(kind)] =
          std::sqrt(power / static_cast<double>(num_channels_));
      layer_mean[l * 2 + static_cast<size_t>(kind)] =
          mean / static_cast<double>(num_channels_);
    }
  }
  for (size_t l = 0; l < num_layers_; ++l) {
    for (size_t c = 0; c < num_channels_; ++c) {
      for (int kind = 0; kind < 2; ++kind) {
        const size_t i = (l * num_channels_ + c) * 2 + static_cast<size_t>(kind);
        body_sigma_[i] = layer_sigma[l * 2 + static_cast<size_t>(kind)];
        body_mean_[i] = layer_mean[l * 2 + static_cast<size_t>(kind)];
        anchor_scale_[i] = profile.AnchorScale(l, c, kind);
      }
    }
  }

  // Aggregate histograms into per-group symbol counts. Channel histograms
  // are stored in channel-sigma units; re-express them on the layer's
  // quantization grid before counting. A coarse granularity models a
  // *mixture* of the channels' symbol distributions — by Gibbs' inequality
  // it can only be worse than per-channel-layer tables, never better.
  const size_t anchor_groups =
      options.granularity == ProfileGranularity::kGlobal ? 1 : num_layers_;
  std::vector<std::vector<uint64_t>> anchor_counts(anchor_groups * 2,
                                                   std::vector<uint64_t>(kAnchorBins, 0));
  std::vector<std::vector<uint64_t>> body_counts(groups * 2,
                                                 std::vector<uint64_t>(kBodyAlphabet, 0));
  for (size_t l = 0; l < num_layers_; ++l) {
    const double bin = bins_per_layer_[l];
    for (size_t c = 0; c < num_channels_; ++c) {
      for (int kind = 0; kind < 2; ++kind) {
        const size_t g = TableIndex(l, c, kind);
        const double chan_std = profile.RawStd(l, c, kind);
        const double chan_mean = profile.RawMean(l, c, kind);
        const double lsig = layer_sigma[l * 2 + static_cast<size_t>(kind)];
        const double lmean = layer_mean[l * 2 + static_cast<size_t>(kind)];

        const auto a = profile.AnchorHist(l, c, kind);
        const size_t ag = AnchorTableIndex(l, c, kind);
        for (size_t i = 0; i < a.size(); ++i) anchor_counts[ag][i] += a[i];

        const auto h = options.delta_encoding ? profile.DeltaHist(l, c, kind)
                                              : profile.RawHist(l, c, kind);
        for (size_t i = 0; i < h.size(); ++i) {
          if (h[i] == 0) continue;
          const double value = options.delta_encoding
                                   ? HistBinCenter(i) * chan_std
                                   : chan_mean + HistBinCenter(i) * chan_std - lmean;
          const long sym = std::lround(value / (lsig * bin));
          const long clamped =
              std::clamp(sym, -static_cast<long>(KVProfile::kDeltaMaxSym),
                         static_cast<long>(KVProfile::kDeltaMaxSym));
          body_counts[g][static_cast<size_t>(clamped + KVProfile::kDeltaMaxSym)] += h[i];
        }
      }
    }
  }
  // Hierarchical shrinkage for per-channel-layer body tables: blend each
  // channel's counts with its layer's pooled distribution (~6% weight).
  // Per-channel histograms come from a small offline profiling set; without
  // shrinkage, a fresh context whose deltas land slightly outside the
  // profiled support pays near-worst-case code lengths.
  if (options.granularity == ProfileGranularity::kPerChannelLayer &&
      num_channels_ > 1) {
    for (int kind = 0; kind < 2; ++kind) {
      for (size_t l = 0; l < num_layers_; ++l) {
        std::vector<uint64_t> pooled_body(kBodyAlphabet, 0);
        for (size_t c = 0; c < num_channels_; ++c) {
          const size_t g = TableIndex(l, c, kind);
          for (size_t i = 0; i < kBodyAlphabet; ++i) pooled_body[i] += body_counts[g][i];
        }
        for (size_t c = 0; c < num_channels_; ++c) {
          const size_t g = TableIndex(l, c, kind);
          for (size_t i = 0; i < kBodyAlphabet; ++i) {
            body_counts[g][i] = body_counts[g][i] * 16 + pooled_body[i] / num_channels_;
          }
        }
      }
    }
  }

  anchor_tables_.reserve(anchor_counts.size());
  for (const auto& counts : anchor_counts) {
    anchor_tables_.push_back(FreqTable::FromCounts(counts));
  }
  body_tables_.reserve(groups * 2);
  for (size_t g = 0; g < groups * 2; ++g) {
    body_tables_.push_back(FreqTable::FromCounts(body_counts[g]));
  }
}

size_t TableSet::TableIndex(size_t l, size_t c, int kind) const {
  size_t g = 0;
  switch (options_.granularity) {
    case ProfileGranularity::kGlobal: g = 0; break;
    case ProfileGranularity::kPerLayer: g = l; break;
    case ProfileGranularity::kPerChannelLayer: g = l * num_channels_ + c; break;
  }
  return g * 2 + static_cast<size_t>(kind);
}

size_t TableSet::AnchorTableIndex(size_t l, size_t c, int kind) const {
  // Anchor tokens use at most per-layer tables (§5.2 profiles "another
  // [distribution] for anchor tensors", not one per channel): anchors are
  // only ~1/group-size of tokens, so per-channel anchor histograms are too
  // sparse to generalize across contexts.
  (void)c;
  const size_t g =
      options_.granularity == ProfileGranularity::kGlobal ? 0 : l;
  return g * 2 + static_cast<size_t>(kind);
}

const FreqTable& TableSet::Anchor(size_t l, size_t c, int kind) const {
  return anchor_tables_[AnchorTableIndex(l, c, kind)];
}
const FreqTable& TableSet::Body(size_t l, size_t c, int kind) const {
  return body_tables_[TableIndex(l, c, kind)];
}

}  // namespace cachegen
