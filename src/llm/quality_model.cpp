#include "llm/quality_model.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/stats.h"

namespace cachegen {

std::vector<double> QualityModel::LayerWeights(size_t num_layers) const {
  std::vector<double> w(num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    w[l] = std::exp(-p_.layer_decay * static_cast<double>(l) /
                    static_cast<double>(num_layers));
  }
  return w;
}

double QualityModel::WeightedNmse(const KVCache& ref, const KVCache& recon) const {
  const size_t L = ref.num_layers();
  if (L == 0) return 0.0;
  std::vector<double> per_layer(L);
  const std::vector<double> mse = recon.PerLayerMse(ref);
  // Normalize by each layer's signal variance (mean-removed power): one
  // Welford pass over the layer's K values, then its V values. Every step of
  // a pass waits on the previous step's division, so kLanes layers' passes
  // run in step to keep the divider busy. Each layer still adds its own
  // values in the same order, so its variance is bit-identical to a pass of
  // its own.
  constexpr size_t kLanes = 4;
  for (size_t l0 = 0; l0 < L; l0 += kLanes) {
    const size_t lanes = std::min(kLanes, L - l0);
    std::array<RunningStats, kLanes> rs;
    for (const bool v : {false, true}) {
      std::array<std::span<const float>, kLanes> xs;
      for (size_t j = 0; j < lanes; ++j) {
        const KVLayer& layer = ref.layer(l0 + j);
        xs[j] = v ? layer.v.Data() : layer.k.Data();
      }
      size_t in_step = 0;
      if (lanes == kLanes) {
        in_step = std::min({xs[0].size(), xs[1].size(), xs[2].size(), xs[3].size()});
        for (size_t i = 0; i < in_step; ++i) {
          rs[0].Add(xs[0][i]);
          rs[1].Add(xs[1][i]);
          rs[2].Add(xs[2][i]);
          rs[3].Add(xs[3][i]);
        }
      }
      for (size_t j = 0; j < lanes; ++j) {
        for (size_t i = in_step; i < xs[j].size(); ++i) rs[j].Add(xs[j][i]);
      }
    }
    for (size_t j = 0; j < lanes; ++j) {
      per_layer[l0 + j] = mse[l0 + j] / std::max(rs[j].Variance(), 1e-12);
    }
  }
  return WeightedNmse(per_layer);
}

double QualityModel::WeightedNmse(std::span<const double> per_layer_nmse) const {
  if (per_layer_nmse.empty()) return 0.0;
  const std::vector<double> w = LayerWeights(per_layer_nmse.size());
  double num = 0.0, den = 0.0;
  for (size_t l = 0; l < per_layer_nmse.size(); ++l) {
    num += w[l] * per_layer_nmse[l];
    den += w[l];
  }
  return num / den;
}

double QualityModel::QualityFromDistortion(double weighted_nmse) const {
  if (weighted_nmse <= 0.0) return 1.0;
  const double x = std::log10(weighted_nmse) - p_.log10_nmse_mid;
  return 1.0 / (1.0 + std::exp(p_.logistic_k * x));
}

double QualityModel::QualityFromKV(const KVCache& ref, const KVCache& recon) const {
  return QualityFromDistortion(WeightedNmse(ref, recon));
}

double QualityModel::QualityFromDrop(double lost_mass, bool attention_aware) const {
  lost_mass = std::clamp(lost_mass, 0.0, 1.0);
  const double beta = attention_aware ? p_.drop_beta_kv : p_.drop_beta_text;
  return std::clamp(1.0 - beta * lost_mass - 0.35 * lost_mass * lost_mass, 0.0, 1.0);
}

}  // namespace cachegen
