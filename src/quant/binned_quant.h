// Fixed-bin-width quantization of delta tensors (§5.2, §C.2).
//
// CacheGen quantizes delta values with a per-layer-group *bin size* rather
// than a bit width: symbol = round(x / bin), reconstructed as symbol * bin.
// Larger bins mean larger quantization error and fewer distinct symbols
// (hence fewer bits after arithmetic coding). Symbols are clamped to
// [-max_symbol, +max_symbol] and shifted to the non-negative alphabet
// [0, 2*max_symbol] expected by the range coder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cachegen {

class BinnedQuantizer {
 public:
  // `bin_width` in units of the data's natural scale; `max_symbol` bounds
  // the alphabet (default 1 << 7 keeps alphabets AC-friendly).
  explicit BinnedQuantizer(double bin_width, int32_t max_symbol = 128);

  int32_t max_symbol() const { return max_symbol_; }
  double bin_width() const { return bin_width_; }
  uint32_t alphabet_size() const { return static_cast<uint32_t>(2 * max_symbol_ + 1); }

  // Signed symbol in [-max_symbol, max_symbol].
  int32_t QuantizeOne(float x) const;
  float DequantizeOne(int32_t symbol) const;

  // Shifted (non-negative) alphabet for the range coder.
  uint32_t ToAlphabet(int32_t symbol) const { return static_cast<uint32_t>(symbol + max_symbol_); }
  int32_t FromAlphabet(uint32_t a) const { return static_cast<int32_t>(a) - max_symbol_; }

  void Quantize(std::span<const float> xs, std::vector<int32_t>& out) const;

 private:
  double bin_width_;
  int32_t max_symbol_;
};

}  // namespace cachegen
