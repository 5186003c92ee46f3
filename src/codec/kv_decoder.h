// KVDecoder: inverse of KVEncoder. Given an EncodedChunk and the same
// TableSet the encoder used, reconstructs the chunk's KV tensors. Token
// groups decode independently (and in parallel); decoded chunks concatenate
// along the token axis to rebuild the full context cache (§5.3).
#pragma once

#include <memory>

#include "codec/kv_encoder.h"
#include "codec/profile.h"
#include "tensor/kv_cache.h"

namespace cachegen {

class KVDecoder {
 public:
  KVDecoder(std::shared_ptr<const KVProfile> profile,
            std::shared_ptr<const TableSet> tables);

  KVDecoder(std::shared_ptr<const KVProfile> profile, const EncodingLevel& level,
            const CodecOptions& options = {});

  // `threads` = 0 uses hardware concurrency. Allocates the result, then
  // decodes into it with DecodeChunkInto.
  KVCache DecodeChunk(const EncodedChunk& chunk, unsigned threads = 0) const;

  // Decode in place into rows [row0, row0 + num_tokens) of `out`, which
  // must have the chunk's layers and channels and at least that many rows;
  // no other row is touched. Reassembling a context this way into a reused
  // buffer needs no per-chunk output tensor and no copy. Every check runs
  // before any write: the header's geometry, level and options must match
  // this decoder's tables, and its stream count its token count
  // (std::invalid_argument).
  void DecodeChunkInto(const EncodedChunk& chunk, KVCache& out, size_t row0,
                       unsigned threads = 0) const;

 private:
  // The header checks, run before the header's geometry sizes or indexes
  // anything.
  void CheckChunk(const EncodedChunk& chunk) const;

  // Decodes `lanes` consecutive groups [g0, g0+lanes) of `rows` tokens each
  // in lockstep into `out` from row `row0` on — see ac/lane_decoder.h.
  // Corrupt streams yield contained garbage in their own lane only.
  void DecodeGroupBatch(const EncodedChunk& chunk, size_t g0, size_t lanes,
                        size_t rows, KVCache& out, size_t row0) const;

  std::shared_ptr<const KVProfile> profile_;
  std::shared_ptr<const TableSet> tables_;
};

}  // namespace cachegen
