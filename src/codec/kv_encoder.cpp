#include "codec/kv_encoder.h"

#include <algorithm>
#include <stdexcept>

#include "ac/range_encoder.h"
#include "bitstream/bit_writer.h"
#include "common/parallel_for.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/symbol_kernels.h"

namespace cachegen {

size_t EncodedChunk::PayloadBytes() const {
  size_t n = 0;
  for (const auto& s : streams) n += s.size();
  return n;
}

size_t EncodedChunk::WireBytes() const {
  // Header (~32B) + 4B length framing per stream.
  return PayloadBytes() + 32 + 4 * streams.size();
}

KVEncoder::KVEncoder(std::shared_ptr<const KVProfile> profile,
                     std::shared_ptr<const TableSet> tables)
    : profile_(std::move(profile)), tables_(std::move(tables)) {
  if (!profile_ || !tables_) throw std::invalid_argument("KVEncoder: null inputs");
}

KVEncoder::KVEncoder(std::shared_ptr<const KVProfile> profile,
                     const EncodingLevel& level, const CodecOptions& options)
    : profile_(std::move(profile)),
      tables_(std::make_shared<TableSet>(*profile_, level, options)) {}

void KVEncoder::EncodeGroup(const KVCache& kv, size_t row0, size_t num_tokens,
                            size_t group, std::vector<uint8_t>& out,
                            KVCache* recon) const {
  const CodecOptions& opt = tables_->options();
  const size_t G = opt.token_group_size;
  // Chunk-relative rows [t0, t1); row r of the chunk is row row0 + r of kv.
  const size_t t0 = group * G;
  const size_t t1 = std::min(t0 + G, num_tokens);
  const size_t C = kv.num_channels();

  BitWriter writer;
  // ~2 bits/symbol at the default level; reserve once to avoid regrowth.
  writer.Reserve(kv.num_layers() * (t1 - t0) * C / 2 + 64);
  RangeEncoder enc(writer);

  // Per-(layer, kind) flat views of the TableSet so the batch kernels and
  // EncodeRun walk raw arrays instead of re-resolving accessors per element.
  std::vector<double> ref(C);  // reconstructed reference row
  std::vector<double> offset(C), sigma(C), scale(C);
  std::vector<uint32_t> syms(C);
  std::vector<float> row(C);  // reconstructed row when `recon` is not wanted
  std::vector<const FreqTable*> body(C), anchor(C);

  for (size_t l = 0; l < kv.num_layers(); ++l) {
    const double bin = tables_->BinFor(l);
    for (int kind = 0; kind < 2; ++kind) {
      const Tensor& t = kind == 0 ? kv.layer(l).k : kv.layer(l).v;
      // Receiver-side rows, written by the decoder's own kernels from the
      // symbols just coded (this group's rows only: groups run in parallel).
      Tensor* rt = nullptr;
      if (recon) rt = kind == 0 ? &recon->layer(l).k : &recon->layer(l).v;
      for (size_t c = 0; c < C; ++c) {
        sigma[c] = tables_->BodySigma(l, c, kind);
        body[c] = &tables_->Body(l, c, kind);
      }
      if (!opt.delta_encoding) {
        // Ablation mode: every value coded as binned normalized raw value.
        for (size_t c = 0; c < C; ++c) offset[c] = tables_->BodyMean(l, c, kind);
        for (size_t r = t0; r < t1; ++r) {
          QuantizeRow(t.Row(row0 + r).data(), offset.data(), sigma.data(), bin,
                      KVProfile::kDeltaMaxSym, C, syms.data());
          enc.EncodeRun(body.data(), syms.data(), C);
          if (rt) {
            ReconstructRow(syms.data(), sigma.data(), bin, KVProfile::kDeltaMaxSym,
                           /*advance_ref=*/false, C, offset.data(),
                           rt->Row(r).data());
          }
        }
        continue;
      }
      // Anchor row: vectorwise 8-bit against the profiled anchor scale. The
      // decoder reconstructs the same `ref`, so deltas are computed against
      // the *reconstructed* anchor and quantization error cannot compound.
      for (size_t c = 0; c < C; ++c) {
        scale[c] = tables_->AnchorScaleEff(l, c, kind);
        anchor[c] = &tables_->Anchor(l, c, kind);
      }
      QuantizeAnchorRow(t.Row(row0 + t0).data(), scale.data(), KVProfile::kAnchorMaxSym,
                        C, syms.data(), ref.data());
      enc.EncodeRun(anchor.data(), syms.data(), C);
      if (rt) {
        ReconstructAnchorRow(syms.data(), scale.data(), KVProfile::kAnchorMaxSym,
                             C, ref.data(), rt->Row(t0).data());
      }
      const bool consecutive = opt.anchor_mode == AnchorMode::kConsecutive;
      for (size_t r = t0 + 1; r < t1; ++r) {
        QuantizeRow(t.Row(row0 + r).data(), ref.data(), sigma.data(), bin,
                    KVProfile::kDeltaMaxSym, C, syms.data());
        enc.EncodeRun(body.data(), syms.data(), C);
        // The decoder's row kernel: yields the receiver's row and, in
        // consecutive mode, moves `ref` to it (the reference tracks the
        // reconstructed previous token).
        if (rt || consecutive) {
          ReconstructRow(syms.data(), sigma.data(), bin, KVProfile::kDeltaMaxSym,
                         consecutive, C, ref.data(),
                         rt ? rt->Row(r).data() : row.data());
        }
      }
    }
  }
  enc.Finish();
  out = writer.TakeBytes();
}

EncodedChunk KVEncoder::EncodeChunk(const KVCache& chunk, uint32_t chunk_index,
                                    uint64_t token_begin, unsigned threads,
                                    KVCache* recon) const {
  return EncodeChunk(chunk, 0, chunk.num_tokens(), chunk_index, token_begin,
                     threads, recon);
}

EncodedChunk KVEncoder::EncodeChunk(const KVCache& kv, size_t row0,
                                    size_t num_tokens, uint32_t chunk_index,
                                    uint64_t token_begin, unsigned threads,
                                    KVCache* recon) const {
  if (row0 + num_tokens > kv.num_tokens()) {
    throw std::invalid_argument("KVEncoder::EncodeChunk: rows out of range");
  }
  CG_TRACE_SPAN("codec", "encode_chunk");
  const uint64_t enc_start_us = obs::Tracer::NowUs();
  EncodedChunk out;
  out.chunk_index = chunk_index;
  out.token_begin = token_begin;
  out.num_tokens = static_cast<uint32_t>(num_tokens);
  out.num_layers = static_cast<uint32_t>(kv.num_layers());
  out.num_channels = static_cast<uint32_t>(kv.num_channels());
  out.level_id = tables_->level().id;
  out.option_flags = tables_->options().Flags();
  out.group_size = static_cast<uint16_t>(tables_->options().token_group_size);

  const size_t groups =
      NumTokenGroups(num_tokens, tables_->options().token_group_size);
  out.streams.resize(groups);
  // Every element of `recon` is overwritten below, so the buffer is
  // reshaped in place and keeps its allocation across levels and chunks.
  if (recon) recon->Reshape(kv.num_layers(), num_tokens, kv.num_channels());
  ParallelFor(groups,
              [&](size_t g) {
                EncodeGroup(kv, row0, num_tokens, g, out.streams[g], recon);
              },
              threads);
  CG_METRIC_COUNT("codec.chunks_encoded", 1);
  CG_METRIC_HIST("codec.encode_us", obs::Tracer::NowUs() - enc_start_us);
  return out;
}

}  // namespace cachegen
