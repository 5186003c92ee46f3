// KVCache: the per-layer key/value tensors produced by a transformer's
// prefill over a context. Layout follows the paper's indexing (§5.1.3):
// every element is addressed by (layer, token, channel), with K and V kept
// as separate per-layer (tokens x channels) tensors.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace cachegen {

struct KVLayer {
  Tensor k;  // tokens x channels
  Tensor v;  // tokens x channels
};

class KVCache {
 public:
  KVCache() = default;
  KVCache(size_t num_layers, size_t num_tokens, size_t num_channels);

  size_t num_layers() const { return layers_.size(); }
  size_t num_tokens() const { return layers_.empty() ? 0 : layers_[0].k.rows(); }
  size_t num_channels() const { return layers_.empty() ? 0 : layers_[0].k.cols(); }

  KVLayer& layer(size_t l) { return layers_[l]; }
  const KVLayer& layer(size_t l) const { return layers_[l]; }

  // Total float elements across K and V of all layers.
  size_t TotalElements() const;

  // Copy of tokens [begin, end) across all layers: the unit CacheGen encodes
  // per context chunk (§5.3).
  KVCache SliceTokens(size_t begin, size_t end) const;

  // Change the shape in place through Tensor::Reshape, keeping every
  // layer's allocation: the reusable destination of in-place decodes
  // (KVDecoder::DecodeChunkInto). Contents follow Tensor::Reshape.
  void Reshape(size_t num_layers, size_t num_tokens, size_t num_channels);

  // Layer-uniform MSE against a reference cache of identical shape.
  double Mse(const KVCache& ref) const;

  // Per-layer MSE, averaged over K and V.
  std::vector<double> PerLayerMse(const KVCache& ref) const;

 private:
  std::vector<KVLayer> layers_;
};

}  // namespace cachegen
