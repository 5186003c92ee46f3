#include "ac/range_encoder.h"

#include <stdexcept>
#include <vector>

namespace cachegen {

namespace {
constexpr uint32_t kTopValue = 1u << 24;
}

// Shift one byte out of `low_`. Bytes are buffered through cache_/cache_size_
// so that a carry out of the 32-bit window can still propagate into already
// pending 0xFF bytes (classic LZMA carry handling).
void RangeEncoder::ShiftLow() {
  if (low_ < 0xFF000000ULL || low_ > 0xFFFFFFFFULL) {
    const uint8_t carry = static_cast<uint8_t>(low_ >> 32);
    do {
      out_.PutByte(static_cast<uint8_t>(cache_ + carry));
      cache_ = 0xFF;
    } while (--cache_size_ != 0);
    cache_ = static_cast<uint8_t>(low_ >> 24);
  }
  ++cache_size_;
  low_ = (low_ << 8) & 0xFFFFFFFFULL;
}

void RangeEncoder::Encode(const FreqTable& table, uint32_t symbol) {
  if (finished_) throw std::logic_error("RangeEncoder: already finished");
  if (symbol >= table.alphabet_size()) {
    throw std::out_of_range("RangeEncoder: symbol outside alphabet");
  }
  const uint32_t start = table.CumFreq(symbol);
  const uint32_t size = table.Freq(symbol);
  range_ >>= FreqTable::kTotalBits;  // divide by total (power of two)
  low_ += static_cast<uint64_t>(start) * range_;
  range_ *= size;
  while (range_ < kTopValue) {
    range_ <<= 8;
    ShiftLow();
  }
}

// ShiftLow/Encode inlined with the coder state in locals; it must stay
// bit-for-bit equivalent to the per-symbol path (the golden-bitstream test
// enforces this).
void RangeEncoder::EncodeRun(const FreqTable* const* tables,
                             const uint32_t* symbols, size_t n) {
  if (finished_) throw std::logic_error("RangeEncoder: already finished");
  std::vector<uint8_t>& out = out_.AppendSink();
  uint64_t low = low_;
  uint32_t range = range_;
  uint8_t cache = cache_;
  uint64_t cache_size = cache_size_;
  const auto commit = [&] {
    low_ = low;
    range_ = range;
    cache_ = cache;
    cache_size_ = cache_size;
  };
  for (size_t i = 0; i < n; ++i) {
    const FreqTable& table = *tables[i];
    const uint32_t symbol = symbols[i];
    if (symbol >= table.alphabet_size()) {
      commit();
      throw std::out_of_range("RangeEncoder: symbol outside alphabet");
    }
    const uint32_t start = table.CumFreq(symbol);
    const uint32_t size = table.Freq(symbol);
    range >>= FreqTable::kTotalBits;
    low += static_cast<uint64_t>(start) * range;
    range *= size;
    while (range < kTopValue) {
      range <<= 8;
      if (low < 0xFF000000ULL || low > 0xFFFFFFFFULL) {
        const uint8_t carry = static_cast<uint8_t>(low >> 32);
        do {
          out.push_back(static_cast<uint8_t>(cache + carry));
          cache = 0xFF;
        } while (--cache_size != 0);
        cache = static_cast<uint8_t>(low >> 24);
      }
      ++cache_size;
      low = (low << 8) & 0xFFFFFFFFULL;
    }
  }
  commit();
}

void RangeEncoder::Finish() {
  if (finished_) return;
  finished_ = true;
  for (int i = 0; i < 5; ++i) ShiftLow();
}

}  // namespace cachegen
