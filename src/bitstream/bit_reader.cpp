#include "bitstream/bit_reader.h"

#include <stdexcept>
#include <string>

namespace cachegen {

void BitReader::ThrowPastEnd(size_t wanted) const {
  throw std::out_of_range("BitReader: read of " + std::to_string(wanted) +
                          " byte(s) past end at offset " +
                          std::to_string(byte_pos_) + " (buffer is " +
                          std::to_string(bytes_.size()) + " bytes)");
}

uint64_t BitReader::GetBytesBE(int n) {
  if (n < 0 || n > 8) {
    throw std::invalid_argument("BitReader::GetBytesBE: n out of range");
  }
  if (RemainingBytes() < static_cast<size_t>(n)) ThrowPastEnd(n);
  uint64_t out = 0;
  for (int i = 0; i < n; ++i) out = (out << 8) | bytes_[byte_pos_++];
  return out;
}

}  // namespace cachegen
