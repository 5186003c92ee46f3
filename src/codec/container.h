// Container format for encoded chunks: the byte layout that actually sits
// on the storage server and travels the network (§6's {chunk_id -> encoded
// bitstream} dictionary values).
//
// Layout (integers are LEB128 varints except the u8 fields):
//   magic "CGKV" | version u8 | chunk_index | token_begin | num_tokens |
//   num_layers | num_channels | level_id | option_flags u8 | group_size |
//   stream_count | { stream blob }*
#pragma once

#include <cstdint>
#include <vector>

#include "codec/kv_encoder.h"

namespace cachegen {

inline constexpr uint8_t kContainerVersion = 1;

std::vector<uint8_t> SerializeChunk(const EncodedChunk& chunk);
EncodedChunk ParseChunk(std::span<const uint8_t> bytes);

}  // namespace cachegen
