#include "ac/range_decoder.h"

#include <stdexcept>
#include <string>

namespace cachegen {

namespace {
constexpr uint32_t kTopValue = 1u << 24;
}

RangeDecoder::RangeDecoder(BitReader& in) : in_(in) {
  // The encoder's first flushed byte is always the initial zero cache; the
  // 5-byte bulk prime consumes it plus the first 4 payload bytes.
  if (in_.RemainingBytes() < 5) {
    throw std::out_of_range(
        "RangeDecoder: truncated stream: need 5 bytes to prime, have " +
        std::to_string(in_.RemainingBytes()));
  }
  code_ = static_cast<uint32_t>(in_.GetBytesBE(5));
}

void RangeDecoder::Normalize() {
  while (range_ < kTopValue) {
    code_ = (code_ << 8) | in_.GetByte();
    range_ <<= 8;
  }
}

uint32_t RangeDecoder::Decode(const FreqTable& table) {
  range_ >>= FreqTable::kTotalBits;
  uint32_t target = code_ / range_;
  if (target >= FreqTable::kTotal) target = FreqTable::kTotal - 1;
  const uint32_t symbol = table.Lookup(target);
  const uint32_t start = table.CumFreq(symbol);
  const uint32_t size = table.Freq(symbol);
  code_ -= start * range_;
  range_ *= size;
  Normalize();
  return symbol;
}

}  // namespace cachegen
