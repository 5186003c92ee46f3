// Byte output buffer, the range coder's sink. Bytes accumulate in one
// contiguous vector with amortized growth; the batch producer
// (RangeEncoder::EncodeRun) appends straight into the backing buffer through
// AppendSink instead of paying a call per byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cachegen {

class BitWriter {
 public:
  // Append a single byte (used by the range coder, which is byte-based).
  void PutByte(uint8_t b) { bytes_.push_back(b); }

  // Grow capacity ahead of a burst of appends (amortized contiguous growth).
  void Reserve(size_t bytes) { bytes_.reserve(bytes_.size() + bytes); }

  // Direct access to the backing buffer, for batch producers that push many
  // bytes in a tight loop.
  std::vector<uint8_t>& AppendSink() { return bytes_; }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace cachegen
