// Offline probability profiling (§5.2 "Arithmetic coding", §6).
//
// CacheGen's encoder profiles, once per model, a separate value distribution
// for every channel-layer combination — one for anchor tokens and one for
// delta tensors — and reuses those distributions for every KV cache the
// model produces. KVProfile stores, per (layer, channel, K|V):
//
//   - raw value mean / std            (for the no-delta ablation mode)
//   - delta std                       (normalizes deltas before binning)
//   - anchor scale                    (8-bit anchor quantization step)
//   - histograms of normalized anchor, delta and raw values
//
// Histograms are kept at a resolution finer than any encoding level's bin
// width, so the FreqTable for an arbitrary bin size can be derived without
// re-profiling — this is how one profile serves the whole encoding-level
// ladder of §5.3.
//
// TableSet materializes the FreqTables for one (profile, level, options)
// combination; encoder and decoder must build it with identical inputs.
// ProfileGranularity::kGlobal implements the strawman of §7.5 (one global
// symbol distribution), kPerLayer the intermediate, kPerChannelLayer the
// paper's design. Granularity governs *both* the probability tables and the
// normalization statistics (sigma/scale) the quantizer uses: a "global
// distribution" strawman cannot secretly keep per-channel scales, or the
// comparison would be vacuous.
//
// Quantization bins are expressed in units of the (granularity-pooled) RAW
// value sigma, for delta and no-delta modes alike, so that ablating delta
// encoding changes the bitstream size but not the reconstruction error —
// matching how the paper's Fig. 15 varies one axis at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ac/freq_table.h"
#include "bitstream/serialize.h"
#include "codec/delta.h"
#include "codec/encoding_level.h"
#include "llm/model_config.h"
#include "tensor/kv_cache.h"

namespace cachegen {

enum class ProfileGranularity : uint8_t {
  kGlobal = 0,
  kPerLayer = 1,
  kPerChannelLayer = 2,
};

struct CodecOptions {
  bool delta_encoding = true;   // false: code raw normalized values (ablation)
  bool layerwise_bins = true;   // false: single mid-group bin for all layers
  ProfileGranularity granularity = ProfileGranularity::kPerChannelLayer;
  AnchorMode anchor_mode = AnchorMode::kAnchor;
  size_t token_group_size = kTokenGroupSize;

  uint8_t Flags() const;
  static CodecOptions FromFlags(uint8_t flags);
};

class KVProfile {
 public:
  static constexpr int kHistBins = 256;        // over [-kHistRange, kHistRange)
  static constexpr double kHistRange = 8.0;
  static constexpr int32_t kAnchorMaxSym = 127;  // anchor alphabet = 255
  static constexpr int32_t kDeltaMaxSym = 64;    // delta alphabet = 129

  KVProfile() = default;

  // Two-pass build over calibration caches (all from the same model):
  // pass 1 estimates scales, pass 2 fills the normalized histograms.
  static KVProfile Build(const ModelConfig& cfg,
                         std::span<const KVCache* const> caches,
                         size_t token_group_size = kTokenGroupSize);

  size_t num_layers() const { return num_layers_; }
  size_t num_channels() const { return num_channels_; }

  // kind: 0 = K, 1 = V.
  double RawMean(size_t l, size_t c, int kind) const { return stats_[Idx(l, c, kind)].raw_mean; }
  double RawStd(size_t l, size_t c, int kind) const { return stats_[Idx(l, c, kind)].raw_std; }
  double DeltaStd(size_t l, size_t c, int kind) const { return stats_[Idx(l, c, kind)].delta_std; }
  double AnchorScale(size_t l, size_t c, int kind) const {
    return stats_[Idx(l, c, kind)].anchor_scale;
  }

  std::span<const uint64_t> AnchorHist(size_t l, size_t c, int kind) const;
  std::span<const uint64_t> DeltaHist(size_t l, size_t c, int kind) const;
  std::span<const uint64_t> RawHist(size_t l, size_t c, int kind) const;

  void Serialize(ByteWriter& w) const;
  static KVProfile Deserialize(ByteReader& r);

 private:
  friend class TableSet;

  struct ChannelStats {
    double raw_mean = 0.0;
    double raw_std = 1.0;
    double delta_std = 1.0;
    double anchor_scale = 1.0;
  };

  size_t Idx(size_t l, size_t c, int kind) const {
    return (l * num_channels_ + c) * 2 + static_cast<size_t>(kind);
  }

  size_t num_layers_ = 0;
  size_t num_channels_ = 0;
  std::vector<ChannelStats> stats_;
  // Flattened histograms, kHistBins per (l, c, kind); anchor histograms use
  // 2*kAnchorMaxSym+1 bins (direct symbol counts).
  std::vector<uint64_t> anchor_hist_;
  std::vector<uint64_t> delta_hist_;
  std::vector<uint64_t> raw_hist_;
};

// FreqTables materialized for one (profile, level, options) combination.
class TableSet {
 public:
  TableSet(const KVProfile& profile, const EncodingLevel& level,
           const CodecOptions& options);

  const FreqTable& Anchor(size_t l, size_t c, int kind) const;
  // Delta tables in delta mode; raw-value tables in no-delta mode.
  const FreqTable& Body(size_t l, size_t c, int kind) const;

  // Effective bin width (raw-sigma units) used for layer `l`.
  double BinFor(size_t l) const { return bins_per_layer_[l]; }

  // Per-channel-layer normalization statistics (granularity-independent:
  // they belong to the quantizer, not the probability model).
  double BodySigma(size_t l, size_t c, int kind) const {
    return body_sigma_[StatIndex(l, c, kind)];
  }
  double BodyMean(size_t l, size_t c, int kind) const {
    return body_mean_[StatIndex(l, c, kind)];
  }
  double AnchorScaleEff(size_t l, size_t c, int kind) const {
    return anchor_scale_[StatIndex(l, c, kind)];
  }

  const EncodingLevel& level() const { return level_; }
  const CodecOptions& options() const { return options_; }
  // The profile geometry the tables were built for.
  size_t num_layers() const { return num_layers_; }
  size_t num_channels() const { return num_channels_; }

 private:
  size_t TableIndex(size_t l, size_t c, int kind) const;
  size_t AnchorTableIndex(size_t l, size_t c, int kind) const;
  size_t StatIndex(size_t l, size_t c, int kind) const {
    return (l * num_channels_ + c) * 2 + static_cast<size_t>(kind);
  }

  EncodingLevel level_;
  CodecOptions options_;
  size_t num_layers_ = 0;
  size_t num_channels_ = 0;
  std::vector<double> bins_per_layer_;
  std::vector<FreqTable> anchor_tables_;
  std::vector<FreqTable> body_tables_;
  std::vector<double> body_sigma_;    // per channel-layer raw sigma
  std::vector<double> body_mean_;     // per channel-layer raw mean
  std::vector<double> anchor_scale_;  // per channel-layer anchor scale
};

}  // namespace cachegen
