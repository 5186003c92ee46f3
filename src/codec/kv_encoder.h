// KVEncoder: the CacheGen encoder (§5.2).
//
// Pipeline per context chunk:
//   1. change-based encoding — tokens grouped by kTokenGroupSize; the
//      group's anchor token is coded directly, other tokens as deltas
//      against the (reconstructed) anchor;
//   2. layer-wise quantization — deltas normalized by the profiled
//      per-channel delta sigma and binned with the encoding level's
//      per-layer-group bin width; anchors always vectorwise 8-bit;
//   3. arithmetic coding — symbols range-coded under the per-channel-layer
//      tables of the TableSet.
//
// Each token group becomes an independent bitstream, so encode and decode
// parallelize across groups (the paper's GPU kernels map one CUDA thread
// per token; we map one task per group).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/encoding_level.h"
#include "codec/profile.h"
#include "tensor/kv_cache.h"

namespace cachegen {

// One encoded context chunk at one encoding level: self-contained and
// independently decodable (§5.3).
struct EncodedChunk {
  uint32_t chunk_index = 0;
  uint64_t token_begin = 0;     // absolute position within the context
  uint32_t num_tokens = 0;
  uint32_t num_layers = 0;
  uint32_t num_channels = 0;
  int32_t level_id = 0;
  uint8_t option_flags = 0;
  uint16_t group_size = kTokenGroupSize;
  std::vector<std::vector<uint8_t>> streams;  // one per token group

  // Compressed payload bytes (what travels the network), simulated scale.
  size_t PayloadBytes() const;
  // Payload plus per-stream and header framing.
  size_t WireBytes() const;
};

class KVEncoder {
 public:
  // `tables` must be built from the same profile/level/options on the
  // decoding side; typically shared via the model's profile store.
  KVEncoder(std::shared_ptr<const KVProfile> profile,
            std::shared_ptr<const TableSet> tables);

  // Convenience: builds the TableSet internally.
  KVEncoder(std::shared_ptr<const KVProfile> profile, const EncodingLevel& level,
            const CodecOptions& options = {});

  // Encode one chunk of KV (tokens already sliced by the streamer).
  // `threads` = 0 uses hardware concurrency. With `recon`, the encoder also
  // writes the tensors a receiver reconstructs from the returned chunk —
  // bit-identical to KVDecoder::DecodeChunk of it, built group-parallel
  // from the symbols just coded, so write-path callers never decode.
  // `recon` is reshaped in place, so a reused buffer keeps its allocation.
  EncodedChunk EncodeChunk(const KVCache& chunk, uint32_t chunk_index = 0,
                           uint64_t token_begin = 0, unsigned threads = 0,
                           KVCache* recon = nullptr) const;

  const TableSet& tables() const { return *tables_; }
  const KVProfile& profile() const { return *profile_; }

 private:
  void EncodeGroup(const KVCache& chunk, size_t group,
                   std::vector<uint8_t>& out, KVCache* recon) const;

  std::shared_ptr<const KVProfile> profile_;
  std::shared_ptr<const TableSet> tables_;
};

}  // namespace cachegen
