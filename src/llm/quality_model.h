// QualityModel: maps KV-cache degradation to the task metrics the paper
// reports (accuracy on LongChat, F1 on TriviaQA/NarrativeQA, perplexity on
// WikiText).
//
// Two degradation channels are modelled:
//
//  1. Distortion (lossy compression). Reconstruction error is summarized as
//     layer-weighted normalized MSE with exponentially decaying layer
//     weights — early layers hurt most (Insight 2 / Fig. 4) because their
//     errors propagate through the rest of the forward pass. A calibrated
//     logistic maps the weighted error to a quality factor q in [0, 1]:
//     nearly flat near zero error (8-bit quantization is lossless in task
//     terms), with a knee around nMSE ~ 1.
//
//  2. Token dropping (H2O / Scissorhands / LLMLingua / gisting). Dropping
//     tokens removes the importance mass they carried; quality falls with
//     the *lost* attention mass, more steeply for query-agnostic (text
//     level) pruning than for attention-aware KV pruning.
//
// The two compose multiplicatively (CacheGen-on-H2O experiments, Fig. 10).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tensor/kv_cache.h"

namespace cachegen {

enum class TaskMetric {
  kAccuracy,    // LongChat: fraction of exactly-correct answers
  kF1,          // TriviaQA / NarrativeQA
  kPerplexity,  // WikiText (lower is better)
};

struct QualityModelParams {
  double layer_decay = 3.0;      // weight_l = exp(-decay * l / L)
  double logistic_k = 3.0;       // steepness vs log10(weighted nMSE)
  double log10_nmse_mid = 0.1;   // log10 weighted nMSE at which q = 0.5
  double drop_beta_kv = 0.35;    // quality loss per unit lost mass (KV pruning)
  double drop_beta_text = 0.50;  // ... for query-agnostic text pruning (steeper)
};

class QualityModel {
 public:
  explicit QualityModel(QualityModelParams params = {}) : p_(params) {}

  // Layer-weighted normalized MSE of `recon` against `ref`, where each
  // layer's MSE is normalized by that layer's signal variance in `ref`.
  double WeightedNmse(const KVCache& ref, const KVCache& recon) const;

  // Same, from per-layer nMSE values directly (used by analytic sweeps).
  double WeightedNmse(std::span<const double> per_layer_nmse) const;

  // Quality factor in [0,1] from distortion alone.
  double QualityFromDistortion(double weighted_nmse) const;
  double QualityFromKV(const KVCache& ref, const KVCache& recon) const;

  // Quality factor from dropping tokens that carried `lost_mass` (in [0,1])
  // of total attention importance. `attention_aware` selects the gentler
  // KV-pruning slope.
  double QualityFromDrop(double lost_mass, bool attention_aware) const;

  const QualityModelParams& params() const { return p_; }

 private:
  std::vector<double> LayerWeights(size_t num_layers) const;

  QualityModelParams p_;
};

}  // namespace cachegen
