#include "codec/container.h"

#include <stdexcept>

#include "bitstream/serialize.h"

namespace cachegen {

namespace {
constexpr char kMagic[4] = {'C', 'G', 'K', 'V'};
constexpr char kLayeredMagic[4] = {'C', 'G', 'K', 'L'};
}

std::vector<uint8_t> SerializeChunk(const EncodedChunk& chunk) {
  ByteWriter w;
  for (char m : kMagic) w.PutU8(static_cast<uint8_t>(m));
  w.PutU8(kContainerVersion);
  w.PutVarU64(chunk.chunk_index);
  w.PutVarU64(chunk.token_begin);
  w.PutVarU64(chunk.num_tokens);
  w.PutVarU64(chunk.num_layers);
  w.PutVarU64(chunk.num_channels);
  w.PutVarI64(chunk.level_id);
  w.PutU8(chunk.option_flags);
  w.PutVarU64(chunk.group_size);
  w.PutVarU64(chunk.streams.size());
  for (const auto& s : chunk.streams) w.PutBlob(s);
  return w.TakeBytes();
}

EncodedChunk ParseChunk(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  for (char m : kMagic) {
    if (r.GetU8() != static_cast<uint8_t>(m)) {
      throw std::runtime_error("ParseChunk: bad magic");
    }
  }
  const uint8_t version = r.GetU8();
  if (version != kContainerVersion) {
    throw std::runtime_error("ParseChunk: unsupported version");
  }
  EncodedChunk c;
  c.chunk_index = static_cast<uint32_t>(r.GetVarU64());
  c.token_begin = r.GetVarU64();
  c.num_tokens = static_cast<uint32_t>(r.GetVarU64());
  c.num_layers = static_cast<uint32_t>(r.GetVarU64());
  c.num_channels = static_cast<uint32_t>(r.GetVarU64());
  c.level_id = static_cast<int32_t>(r.GetVarI64());
  c.option_flags = r.GetU8();
  c.group_size = static_cast<uint16_t>(r.GetVarU64());
  const uint64_t n = r.GetVarU64();
  // Every blob costs at least its one-byte length, so a count beyond the
  // bytes left is corrupt — reject it before it sizes an allocation.
  if (n > r.remaining()) {
    throw std::runtime_error("ParseChunk: stream count exceeds container");
  }
  c.streams.reserve(n);
  for (uint64_t i = 0; i < n; ++i) c.streams.push_back(r.GetBlob());
  return c;
}

std::vector<uint8_t> SerializeLayeredChunk(const LayeredChunk& chunk) {
  ByteWriter w;
  for (char m : kLayeredMagic) w.PutU8(static_cast<uint8_t>(m));
  w.PutU8(kLayeredContainerVersion);
  w.PutF64(chunk.fine_bin_sigma);
  w.PutBlob(SerializeChunk(chunk.base));
  w.PutBlob(chunk.enhancement);
  return w.TakeBytes();
}

LayeredChunk ParseLayeredChunk(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  for (char m : kLayeredMagic) {
    if (r.GetU8() != static_cast<uint8_t>(m)) {
      throw std::runtime_error("ParseLayeredChunk: bad magic");
    }
  }
  const uint8_t version = r.GetU8();
  if (version != kLayeredContainerVersion) {
    throw std::runtime_error("ParseLayeredChunk: unsupported version");
  }
  LayeredChunk c;
  c.fine_bin_sigma = r.GetF64();
  if (!(c.fine_bin_sigma > 0.0)) {
    throw std::runtime_error("ParseLayeredChunk: non-positive fine bin");
  }
  const std::vector<uint8_t> base = r.GetBlob();
  c.base = ParseChunk(base);
  c.enhancement = r.GetBlob();
  return c;
}

}  // namespace cachegen
