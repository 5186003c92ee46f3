// Decoder matching RangeEncoder: consumes the byte stream and, given the
// same sequence of FreqTables used at encode time, reproduces the symbol
// stream exactly.
//
// This is the strict single-stream decoder (binary-search Lookup, no
// auxiliary memory). The codec's fast path decodes many token-group streams
// at once through the interleaved lanes of ac/lane_decoder.h, which
// reproduce Decode symbol-for-symbol on well-formed input. Truncated input
// surfaces here as std::out_of_range, never as silently-wrong symbols.
#pragma once

#include <cstdint>

#include "ac/freq_table.h"
#include "bitstream/bit_reader.h"

namespace cachegen {

class RangeDecoder {
 public:
  // Begins decoding immediately: primes the 32-bit code window with a bulk
  // 5-byte read. Throws std::out_of_range if fewer than 5 bytes remain (no
  // complete range-coded stream is shorter).
  explicit RangeDecoder(BitReader& in);

  // Decode the next symbol under `table`. The table sequence must match the
  // encoder's call-for-call.
  uint32_t Decode(const FreqTable& table);

 private:
  void Normalize();

  BitReader& in_;
  uint32_t range_ = 0xFFFFFFFFu;
  uint32_t code_ = 0;
};

}  // namespace cachegen
