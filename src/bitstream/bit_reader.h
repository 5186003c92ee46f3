// Mirror of BitWriter: sequential byte reads over an immutable buffer.
//
// GetByte is the range decoder's per-byte feed and is deliberately an inline
// pointer bump: one bounds check, one load. Reading past the end is a hard
// error (std::out_of_range carrying the offending offset) — a complete
// range-coded stream never over-reads, because the encoder's 5-byte flush
// exactly covers the decoder's prime plus renormalization lookahead, so an
// over-read always means truncated or corrupt input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace cachegen {

class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  // Next byte; throws std::out_of_range past the end.
  uint8_t GetByte() {
    if (byte_pos_ >= bytes_.size()) ThrowPastEnd(1);
    return bytes_[byte_pos_++];
  }

  // Next `n` (<= 8) bytes as one big-endian value; throws
  // std::out_of_range if fewer than `n` bytes remain (bulk prime for the
  // range decoder).
  uint64_t GetBytesBE(int n);

  size_t RemainingBytes() const { return bytes_.size() - byte_pos_; }

 private:
  [[noreturn]] void ThrowPastEnd(size_t wanted) const;

  std::span<const uint8_t> bytes_;
  size_t byte_pos_ = 0;
};

}  // namespace cachegen
