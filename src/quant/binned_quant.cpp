#include "quant/binned_quant.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cachegen {

BinnedQuantizer::BinnedQuantizer(double bin_width, int32_t max_symbol)
    : bin_width_(bin_width), max_symbol_(max_symbol) {
  if (bin_width <= 0.0) throw std::invalid_argument("BinnedQuantizer: bin_width <= 0");
  if (max_symbol < 1) throw std::invalid_argument("BinnedQuantizer: max_symbol < 1");
}

int32_t BinnedQuantizer::QuantizeOne(float x) const {
  const long s = std::lround(static_cast<double>(x) / bin_width_);
  return static_cast<int32_t>(
      std::clamp(s, static_cast<long>(-max_symbol_), static_cast<long>(max_symbol_)));
}

float BinnedQuantizer::DequantizeOne(int32_t symbol) const {
  return static_cast<float>(static_cast<double>(symbol) * bin_width_);
}

void BinnedQuantizer::Quantize(std::span<const float> xs, std::vector<int32_t>& out) const {
  out.clear();
  out.reserve(xs.size());
  for (float x : xs) out.push_back(QuantizeOne(x));
}

}  // namespace cachegen
