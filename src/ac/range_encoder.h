// 32-bit carry-aware range encoder (LZMA style).
//
// This is the arithmetic-coding workhorse of the KV codec: it maps a stream
// of quantized symbols, each coded under an explicit FreqTable, into a byte
// stream whose length approaches the model cross-entropy. Mirrors the
// paper's use of a modified AC library (§6); parallelism is obtained above
// this layer by encoding independent token-group streams concurrently.
//
// Two interfaces share one coder state: per-symbol Encode, and the batch
// EncodeRun fast path that keeps low/range/cache in registers across a whole
// run and writes bytes straight into the BitWriter's backing buffer. Both
// emit identical bits for identical symbol/table sequences and may be mixed
// freely on one encoder.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ac/freq_table.h"
#include "bitstream/bit_writer.h"

namespace cachegen {

class RangeEncoder {
 public:
  explicit RangeEncoder(BitWriter& out) : out_(out) {}

  // Encode `symbol` under `table`. Tables may differ per call (the codec
  // switches models per channel-layer group).
  void Encode(const FreqTable& table, uint32_t symbol);

  // Batch fast path: encode symbols[i] under *tables[i] for i in [0, n).
  // Equivalent to n Encode calls, with coder state kept in registers.
  void EncodeRun(const FreqTable* const* tables, const uint32_t* symbols,
                 size_t n);

  // Flush remaining state; must be called exactly once, after which the
  // encoder is no longer usable.
  void Finish();

 private:
  void ShiftLow();

  BitWriter& out_;
  uint64_t low_ = 0;
  uint32_t range_ = 0xFFFFFFFFu;
  uint8_t cache_ = 0;
  uint64_t cache_size_ = 1;
  bool finished_ = false;
};

}  // namespace cachegen
