#include "tensor/kv_cache.h"

#include <stdexcept>

namespace cachegen {

KVCache::KVCache(size_t num_layers, size_t num_tokens, size_t num_channels) {
  layers_.reserve(num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    layers_.push_back({Tensor(num_tokens, num_channels), Tensor(num_tokens, num_channels)});
  }
}

size_t KVCache::TotalElements() const {
  size_t n = 0;
  for (const auto& layer : layers_) n += layer.k.size() + layer.v.size();
  return n;
}

KVCache KVCache::SliceTokens(size_t begin, size_t end) const {
  KVCache out;
  out.layers_.reserve(layers_.size());
  for (const auto& layer : layers_) {
    out.layers_.push_back({layer.k.SliceRows(begin, end), layer.v.SliceRows(begin, end)});
  }
  return out;
}

void KVCache::Reshape(size_t num_layers, size_t num_tokens,
                      size_t num_channels) {
  layers_.resize(num_layers);
  for (KVLayer& layer : layers_) {
    layer.k.Reshape(num_tokens, num_channels);
    layer.v.Reshape(num_tokens, num_channels);
  }
}

double KVCache::Mse(const KVCache& ref) const {
  if (ref.layers_.size() != layers_.size()) {
    throw std::invalid_argument("KVCache::Mse: layer count mismatch");
  }
  if (layers_.empty()) return 0.0;
  double s = 0.0;
  for (size_t l = 0; l < layers_.size(); ++l) {
    s += layers_[l].k.Mse(ref.layers_[l].k);
    s += layers_[l].v.Mse(ref.layers_[l].v);
  }
  return s / static_cast<double>(2 * layers_.size());
}

std::vector<double> KVCache::PerLayerMse(const KVCache& ref) const {
  if (ref.layers_.size() != layers_.size()) {
    throw std::invalid_argument("KVCache::PerLayerMse: layer count mismatch");
  }
  std::vector<double> out;
  out.reserve(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    out.push_back(0.5 * (layers_[l].k.Mse(ref.layers_[l].k) + layers_[l].v.Mse(ref.layers_[l].v)));
  }
  return out;
}

}  // namespace cachegen
