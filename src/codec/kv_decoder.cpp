#include "codec/kv_decoder.h"

#include <stdexcept>
#include <vector>

#include "ac/lane_decoder.h"
#include "common/parallel_for.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/symbol_kernels.h"

namespace cachegen {

namespace {
// Full token groups decode under identical table sequences, so this many
// streams are decoded in lockstep per task: independent range-coder chains
// interleaved in one loop hide the per-symbol division latency (see
// ac/lane_decoder.h). Measured on one Ice Lake core, end-to-end decode
// throughput rises steeply to ~8 lanes and peaks around 10; beyond 12 the
// spilled lane state starts to cost more than the added overlap.
constexpr size_t kDecodeLanes = 10;
}  // namespace

KVDecoder::KVDecoder(std::shared_ptr<const KVProfile> profile,
                     std::shared_ptr<const TableSet> tables)
    : profile_(std::move(profile)), tables_(std::move(tables)) {
  if (!profile_ || !tables_) throw std::invalid_argument("KVDecoder: null inputs");
}

KVDecoder::KVDecoder(std::shared_ptr<const KVProfile> profile,
                     const EncodingLevel& level, const CodecOptions& options)
    : profile_(std::move(profile)),
      tables_(std::make_shared<TableSet>(*profile_, level, options)) {}

namespace {

// Decode `rows` positions x C channels x L lanes of symbols into `syms`
// (layout syms[(r*L + j)*C + c]). Kept out-of-line and call-free on purpose:
// inside the large batch function, surrounding calls force the lane array
// onto the stack, and a memory-resident lane state roughly halves decode
// throughput; in this leaf the lanes live in registers. L is compile-time so
// the per-symbol `for j < L` loop fully unrolls.
template <size_t L>
[[gnu::noinline]] void DecodeSymbolBlock(DecodeLane* lanes,
                                         const uint32_t* const* cum,
                                         const uint16_t* const* bucket,
                                         size_t C, size_t rows,
                                         uint32_t* syms) {
  DecodeLane ln[L];
  for (size_t j = 0; j < L; ++j) ln[j] = lanes[j];
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < C; ++c) {
      const uint32_t* const cu = cum[c];
      const uint16_t* const bk = bucket[c];
      uint32_t* const s = syms + (r * L) * C + c;
      for (size_t j = 0; j < L; ++j) {
        s[j * C] = LaneDecode(ln[j], cu, bk);
      }
    }
  }
  for (size_t j = 0; j < L; ++j) lanes[j] = ln[j];
}

// Lane count as a compile-time constant so the per-symbol lane loops fully
// unroll. Symbol decode runs in row blocks through DecodeSymbolBlock; value
// reconstruction then replays the symbol buffer through the same
// vectorizable kernels (and the same double expressions) as the
// single-stream path.
template <size_t L>
void DecodeGroupBatchImpl(const TableSet& tables, const EncodedChunk& chunk,
                          size_t g0, size_t rows, KVCache& out, size_t row0) {
  const CodecOptions& opt = tables.options();
  const size_t G = opt.token_group_size;
  const size_t C = chunk.num_channels;
  constexpr size_t lanes = L;

  DecodeLane lane[L];
  for (size_t j = 0; j < lanes; ++j) lane[j].Init(chunk.streams[g0 + j]);

  // Decode all rows' symbols per (layer, kind) in one block; reconstruct
  // after. `rows` is the token count per group: G for full groups, fewer for
  // the partial tail group (always batched alone).
  std::vector<uint32_t> syms(rows * lanes * C);
  std::vector<double> ref(lanes * C);
  std::vector<double> mean(C), sigma(C), scale(C);
  std::vector<const uint32_t*> cum(C), acum(C);
  std::vector<const uint16_t*> bucket(C), abucket(C);
  // First output row of lane j's group.
  const auto lane_row = [&](size_t j) { return row0 + (g0 + j) * G; };

  for (size_t l = 0; l < chunk.num_layers; ++l) {
    const double bin = tables.BinFor(l);
    for (int kind = 0; kind < 2; ++kind) {
      Tensor& t = kind == 0 ? out.layer(l).k : out.layer(l).v;
      for (size_t c = 0; c < C; ++c) {
        sigma[c] = tables.BodySigma(l, c, kind);
        const FreqTable& bt = tables.Body(l, c, kind);
        cum[c] = bt.CumData();
        bucket[c] = bt.BucketIndex();
      }
      if (!opt.delta_encoding) {
        for (size_t c = 0; c < C; ++c) mean[c] = tables.BodyMean(l, c, kind);
        DecodeSymbolBlock<L>(lane, cum.data(), bucket.data(), C, rows,
                             syms.data());
        for (size_t r = 0; r < rows; ++r) {
          for (size_t j = 0; j < lanes; ++j) {
            ReconstructRow(&syms[(r * lanes + j) * C], sigma.data(), bin,
                           KVProfile::kDeltaMaxSym, /*advance_ref=*/false, C,
                           mean.data(), t.Row(lane_row(j) + r).data());
          }
        }
        continue;
      }
      // Anchor row (per-layer anchor tables), then delta rows per lane.
      for (size_t c = 0; c < C; ++c) {
        scale[c] = tables.AnchorScaleEff(l, c, kind);
        const FreqTable& at = tables.Anchor(l, c, kind);
        acum[c] = at.CumData();
        abucket[c] = at.BucketIndex();
      }
      DecodeSymbolBlock<L>(lane, acum.data(), abucket.data(), C, 1, syms.data());
      DecodeSymbolBlock<L>(lane, cum.data(), bucket.data(), C, rows - 1,
                           syms.data() + lanes * C);
      for (size_t j = 0; j < lanes; ++j) {
        ReconstructAnchorRow(&syms[j * C], scale.data(), KVProfile::kAnchorMaxSym,
                             C, &ref[j * C], t.Row(lane_row(j)).data());
      }
      const bool consecutive = opt.anchor_mode == AnchorMode::kConsecutive;
      for (size_t r = 1; r < rows; ++r) {
        for (size_t j = 0; j < lanes; ++j) {
          ReconstructRow(&syms[(r * lanes + j) * C], sigma.data(), bin,
                         KVProfile::kDeltaMaxSym, consecutive, C, &ref[j * C],
                         t.Row(lane_row(j) + r).data());
        }
      }
    }
  }
}

}  // namespace

void KVDecoder::DecodeGroupBatch(const EncodedChunk& chunk, size_t g0,
                                 size_t lanes, size_t rows, KVCache& out,
                                 size_t row0) const {
  switch (lanes) {
    case 1: DecodeGroupBatchImpl<1>(*tables_, chunk, g0, rows, out, row0); break;
    case 2: DecodeGroupBatchImpl<2>(*tables_, chunk, g0, rows, out, row0); break;
    case 3: DecodeGroupBatchImpl<3>(*tables_, chunk, g0, rows, out, row0); break;
    case 4: DecodeGroupBatchImpl<4>(*tables_, chunk, g0, rows, out, row0); break;
    case 5: DecodeGroupBatchImpl<5>(*tables_, chunk, g0, rows, out, row0); break;
    case 6: DecodeGroupBatchImpl<6>(*tables_, chunk, g0, rows, out, row0); break;
    case 7: DecodeGroupBatchImpl<7>(*tables_, chunk, g0, rows, out, row0); break;
    case 8: DecodeGroupBatchImpl<8>(*tables_, chunk, g0, rows, out, row0); break;
    case 9: DecodeGroupBatchImpl<9>(*tables_, chunk, g0, rows, out, row0); break;
    case 10: DecodeGroupBatchImpl<10>(*tables_, chunk, g0, rows, out, row0); break;
    default:
      throw std::logic_error("KVDecoder::DecodeGroupBatch: bad lane count");
  }
}

void KVDecoder::CheckChunk(const EncodedChunk& chunk) const {
  if (chunk.option_flags != tables_->options().Flags()) {
    throw std::invalid_argument("KVDecoder: codec options mismatch");
  }
  if (chunk.level_id != tables_->level().id) {
    throw std::invalid_argument("KVDecoder: encoding level mismatch");
  }
  // The tables hold one entry per profiled layer and channel; a header
  // claiming more would index past them.
  if (chunk.num_layers > tables_->num_layers() ||
      chunk.num_channels > tables_->num_channels()) {
    throw std::invalid_argument("KVDecoder: geometry exceeds the profile");
  }
  if (chunk.streams.size() !=
      NumTokenGroups(chunk.num_tokens, tables_->options().token_group_size)) {
    throw std::invalid_argument("KVDecoder: stream count mismatch");
  }
}

KVCache KVDecoder::DecodeChunk(const EncodedChunk& chunk, unsigned threads) const {
  CheckChunk(chunk);  // before the header's geometry sizes an allocation
  KVCache out(chunk.num_layers, chunk.num_tokens, chunk.num_channels);
  DecodeChunkInto(chunk, out, 0, threads);
  return out;
}

void KVDecoder::DecodeChunkInto(const EncodedChunk& chunk, KVCache& out,
                                size_t row0, unsigned threads) const {
  CG_TRACE_SPAN("codec", "decode_chunk");
  [[maybe_unused]] const uint64_t dec_start_us = obs::Tracer::NowUs();
  CheckChunk(chunk);
  if (out.num_layers() != chunk.num_layers ||
      out.num_channels() != chunk.num_channels ||
      out.num_tokens() < row0 || out.num_tokens() - row0 < chunk.num_tokens) {
    throw std::invalid_argument("KVDecoder: output buffer shape mismatch");
  }
  // Full groups (exactly token_group_size tokens) share one table sequence
  // and decode in interleaved batches — kDecodeLanes at a time, leftovers as
  // one smaller batch. The partial tail group (if any) has its own table
  // sequence and decodes as a single-lane batch.
  //
  // Corrupt-stream containment: a truncated or bit-flipped group stream
  // yields in-range garbage for that group only (lanes zero-fill past the
  // end of their stream — the seed decoder's convention); other groups are
  // independent streams and reconstruct faithfully.
  const size_t groups = chunk.streams.size();
  const size_t G = tables_->options().token_group_size;
  const size_t full_groups = static_cast<size_t>(chunk.num_tokens) / G;
  const size_t tail_tokens = static_cast<size_t>(chunk.num_tokens) % G;
  const size_t whole_batches = full_groups / kDecodeLanes;
  const size_t leftover = full_groups % kDecodeLanes;
  const size_t batches = whole_batches + (leftover ? 1 : 0);
  const size_t tasks = batches + (groups - full_groups);
  ParallelFor(
      tasks,
      [&](size_t task) {
        if (task < whole_batches) {
          DecodeGroupBatch(chunk, task * kDecodeLanes, kDecodeLanes, G, out,
                           row0);
        } else if (task < batches) {
          DecodeGroupBatch(chunk, task * kDecodeLanes, leftover, G, out, row0);
        } else {
          DecodeGroupBatch(chunk, full_groups, 1, tail_tokens, out, row0);
        }
      },
      threads);
  CG_METRIC_COUNT("codec.chunks_decoded", 1);
  CG_METRIC_HIST("codec.decode_us", obs::Tracer::NowUs() - dec_start_us);
}

}  // namespace cachegen
