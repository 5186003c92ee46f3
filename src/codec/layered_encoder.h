// Layered (SVC-style) incremental streaming — the §9 "Incremental KV cache
// streaming" extension: a chunk is shipped as a coarse base layer that is
// usable on its own, plus an enhancement layer that refines the
// reconstruction when bandwidth allows.
//
// The base layer is a regular EncodedChunk at a coarse encoding level. The
// enhancement layer codes the reconstruction residual, normalized by the
// profiled delta sigma and binned at `fine_bin_sigma`, under an *adaptive*
// arithmetic model (no offline residual profile is needed; encoder and
// decoder adapt in lock-step).
#pragma once

#include <memory>

#include "ac/adaptive_model.h"
#include "codec/kv_decoder.h"
#include "codec/kv_encoder.h"

namespace cachegen {

struct LayeredChunk {
  EncodedChunk base;
  std::vector<uint8_t> enhancement;
  double fine_bin_sigma = 0.25;

  size_t BaseBytes() const { return base.PayloadBytes(); }
  size_t TotalBytes() const { return base.PayloadBytes() + enhancement.size(); }
};

class LayeredEncoder {
 public:
  LayeredEncoder(std::shared_ptr<const KVProfile> profile,
                 const EncodingLevel& base_level, double fine_bin_sigma = 0.25,
                 const CodecOptions& options = {});

  // Shares an existing TableSet (e.g. the Engine's per-level ladder) instead
  // of rebuilding one; `tables` must match `base_level`.
  LayeredEncoder(std::shared_ptr<const KVProfile> profile,
                 std::shared_ptr<const TableSet> tables,
                 const EncodingLevel& base_level, double fine_bin_sigma = 0.25);

  // `full_recon`, when non-null, receives DecodeFull's reconstruction of
  // the result, bit for bit, built from the base reconstruction and the
  // residual symbols the encoder already holds (the role `recon` plays for
  // KVEncoder::EncodeChunk); a buffer that already has the chunk's shape is
  // overwritten in place.
  LayeredChunk Encode(const KVCache& chunk, uint32_t chunk_index = 0,
                      uint64_t token_begin = 0,
                      KVCache* full_recon = nullptr) const;

  // Decode using the base layer only (coarse reconstruction).
  KVCache DecodeBase(const LayeredChunk& chunk) const;

  // Decode base + enhancement (fine reconstruction).
  KVCache DecodeFull(const LayeredChunk& chunk) const;

  // Estimated enhancement-layer payload bytes for `chunk` without running
  // the range coder: empirical order-0 entropy of the residual symbols,
  // which tracks the adaptive model's coded length closely (the model
  // converges to the empirical distribution within a few rebuild windows).
  // The core form takes the base layer's reconstruction, as
  // KVEncoder::EncodeChunk(..., &recon) returns it next to the bitstream;
  // the other decodes an already-encoded base.
  double EstimateEnhancementBytes(const KVCache& chunk,
                                  const KVCache& base_recon) const;
  double EstimateEnhancementBytes(const KVCache& chunk,
                                  const EncodedChunk& base) const;

  int base_level_id() const { return base_level_id_; }
  double fine_bin_sigma() const { return fine_bin_sigma_; }

 private:
  std::shared_ptr<const KVProfile> profile_;
  std::shared_ptr<const TableSet> tables_;
  KVEncoder base_encoder_;
  KVDecoder base_decoder_;
  double fine_bin_sigma_;
  int base_level_id_ = 0;
};

}  // namespace cachegen
