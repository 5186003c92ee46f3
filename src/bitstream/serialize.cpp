#include "bitstream/serialize.h"

#include <stdexcept>

namespace cachegen {

void ByteWriter::PutVarU64(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void ByteWriter::PutVarI64(int64_t v) {
  // ZigZag: maps small negative numbers to small unsigned numbers.
  PutVarU64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void ByteWriter::PutBlob(std::span<const uint8_t> data) {
  PutVarU64(data.size());
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteReader::Require(size_t n) const {
  // Compared against the bytes left: n comes from the input, and pos_ + n
  // could wrap past a blob length near 2^64.
  if (n > buf_.size() - pos_) {
    throw std::out_of_range("ByteReader: truncated input");
  }
}

uint8_t ByteReader::GetU8() {
  Require(1);
  return buf_[pos_++];
}

uint64_t ByteReader::GetVarU64() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw std::runtime_error("ByteReader: varint overflow");
    const uint8_t b = GetU8();
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

int64_t ByteReader::GetVarI64() {
  const uint64_t z = GetVarU64();
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::vector<uint8_t> ByteReader::GetBlob() {
  const uint64_t n = GetVarU64();
  Require(n);
  std::vector<uint8_t> out(buf_.begin() + static_cast<ptrdiff_t>(pos_),
                           buf_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace cachegen
