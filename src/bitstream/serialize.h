// Little serialization layer for the on-disk / on-wire container format:
// single bytes, LEB128 varints and varint-length-prefixed blobs over a
// growable byte buffer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cachegen {

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutVarU64(uint64_t v);        // unsigned LEB128
  void PutVarI64(int64_t v);         // zigzag + LEB128
  void PutBlob(std::span<const uint8_t> data);  // varint length + bytes

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : buf_(bytes) {}

  uint8_t GetU8();
  uint64_t GetVarU64();
  int64_t GetVarI64();
  std::vector<uint8_t> GetBlob();

  size_t remaining() const { return buf_.size() - pos_; }

 private:
  void Require(size_t n) const;

  std::span<const uint8_t> buf_;
  size_t pos_ = 0;
};

}  // namespace cachegen
