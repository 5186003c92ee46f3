#include "codec/layered_encoder.h"

#include <cmath>

#include "bitstream/bit_reader.h"
#include "bitstream/bit_writer.h"
#include "common/parallel_for.h"
#include "quant/symbol_kernels.h"

namespace cachegen {

namespace {
constexpr uint32_t kResidualAlphabet = 2 * KVProfile::kDeltaMaxSym + 1;

// Walk layer `l`'s residual symbols (the exact sequence the enhancement layer
// codes for that layer: K rows, then V rows) one token row at a time,
// feeding each row to `fn(kind, row, const uint32_t* symbols, size_t n)`.
template <typename Fn>
void ForEachResidualRow(const TableSet& tables, const KVCache& chunk,
                        const KVCache& base_recon, double fine_bin_sigma,
                        size_t l, Fn&& fn) {
  const size_t C = chunk.num_channels();
  std::vector<double> sigma(C);
  std::vector<uint32_t> syms(C);
  for (int kind = 0; kind < 2; ++kind) {
    const Tensor& orig = kind == 0 ? chunk.layer(l).k : chunk.layer(l).v;
    const Tensor& base = kind == 0 ? base_recon.layer(l).k : base_recon.layer(l).v;
    for (size_t c = 0; c < C; ++c) sigma[c] = tables.BodySigma(l, c, kind);
    for (size_t r = 0; r < orig.rows(); ++r) {
      ResidualSymbolRow(orig.Row(r).data(), base.Row(r).data(), sigma.data(),
                        fine_bin_sigma, KVProfile::kDeltaMaxSym, C, syms.data());
      fn(kind, r, syms.data(), C);
    }
  }
}
}  // namespace

LayeredEncoder::LayeredEncoder(std::shared_ptr<const KVProfile> profile,
                               const EncodingLevel& base_level,
                               double fine_bin_sigma, const CodecOptions& options)
    : LayeredEncoder(profile,
                     std::make_shared<TableSet>(*profile, base_level, options),
                     base_level, fine_bin_sigma) {}

LayeredEncoder::LayeredEncoder(std::shared_ptr<const KVProfile> profile,
                               std::shared_ptr<const TableSet> tables,
                               const EncodingLevel& base_level,
                               double fine_bin_sigma)
    : profile_(std::move(profile)),
      tables_(std::move(tables)),
      base_encoder_(profile_, tables_),
      base_decoder_(profile_, tables_),
      fine_bin_sigma_(fine_bin_sigma),
      base_level_id_(base_level.id) {}

LayeredChunk LayeredEncoder::Encode(const KVCache& chunk, uint32_t chunk_index,
                                    uint64_t token_begin,
                                    KVCache* full_recon) const {
  LayeredChunk out;
  out.fine_bin_sigma = fine_bin_sigma_;
  // Residual against what the receiver will reconstruct from the base.
  KVCache base_recon;
  out.base = base_encoder_.EncodeChunk(chunk, chunk_index, token_begin,
                                       /*threads=*/0, &base_recon);
  if (full_recon) *full_recon = base_recon;

  BitWriter writer;
  RangeEncoder enc(writer);
  AdaptiveModel model(kResidualAlphabet);
  for (size_t l = 0; l < chunk.num_layers(); ++l) {
    ForEachResidualRow(
        *tables_, chunk, base_recon, fine_bin_sigma_, l,
        [&](int kind, size_t r, const uint32_t* syms, size_t n) {
          for (size_t i = 0; i < n; ++i) model.EncodeAndUpdate(enc, syms[i]);
          if (!full_recon) return;
          // DecodeFull's refinement of the base row, in its exact arithmetic.
          KVLayer& layer = full_recon->layer(l);
          float* row = (kind == 0 ? layer.k : layer.v).Row(r).data();
          for (size_t c = 0; c < n; ++c) {
            const double sigma = tables_->BodySigma(l, c, kind);
            const double sn = static_cast<double>(syms[c]) - KVProfile::kDeltaMaxSym;
            row[c] = static_cast<float>(row[c] + sn * out.fine_bin_sigma * sigma);
          }
        });
  }
  enc.Finish();
  out.enhancement = writer.TakeBytes();
  return out;
}

double LayeredEncoder::EstimateEnhancementBytes(const KVCache& chunk,
                                                const EncodedChunk& base) const {
  return EstimateEnhancementBytes(chunk, base_decoder_.DecodeChunk(base));
}

double LayeredEncoder::EstimateEnhancementBytes(const KVCache& chunk,
                                                const KVCache& base_recon) const {
  // One histogram per layer, one layer per task on the codec pool. Counts
  // are integers, so their sum (and the estimate) is the same at any thread
  // count.
  const size_t L = chunk.num_layers();
  std::vector<uint64_t> layer_counts(L * kResidualAlphabet, 0);
  ParallelFor(L, [&](size_t l) {
    uint64_t* counts = &layer_counts[l * kResidualAlphabet];
    ForEachResidualRow(*tables_, chunk, base_recon, fine_bin_sigma_, l,
                       [&](int, size_t, const uint32_t* syms, size_t n) {
                         for (size_t i = 0; i < n; ++i) ++counts[syms[i]];
                       });
  });
  std::vector<uint64_t> counts(kResidualAlphabet, 0);
  uint64_t total = 0;
  for (size_t l = 0; l < L; ++l) {
    for (uint32_t s = 0; s < kResidualAlphabet; ++s) {
      counts[s] += layer_counts[l * kResidualAlphabet + s];
      total += layer_counts[l * kResidualAlphabet + s];
    }
  }
  if (total == 0) return 0.0;
  double bits = 0.0;
  for (const uint64_t n : counts) {
    if (n == 0) continue;
    const double p = static_cast<double>(n) / static_cast<double>(total);
    bits += static_cast<double>(n) * -std::log2(p);
  }
  // The adaptive model starts uniform and converges over its rebuild
  // windows; a few hundred bytes of startup overhead covers the difference.
  return bits / 8.0 + 256.0;
}

KVCache LayeredEncoder::DecodeBase(const LayeredChunk& chunk) const {
  return base_decoder_.DecodeChunk(chunk.base);
}

KVCache LayeredEncoder::DecodeFull(const LayeredChunk& chunk) const {
  KVCache out = base_decoder_.DecodeChunk(chunk.base);
  BitReader reader(chunk.enhancement);
  RangeDecoder dec(reader);
  AdaptiveModel model(kResidualAlphabet);
  for (size_t l = 0; l < out.num_layers(); ++l) {
    for (int kind = 0; kind < 2; ++kind) {
      Tensor& t = kind == 0 ? out.layer(l).k : out.layer(l).v;
      for (size_t r = 0; r < t.rows(); ++r) {
        for (size_t c = 0; c < t.cols(); ++c) {
          const double sigma = tables_->BodySigma(l, c, kind);
          const uint32_t sym = model.DecodeAndUpdate(dec);
          const double sn = static_cast<double>(sym) - KVProfile::kDeltaMaxSym;
          t.At(r, c) = static_cast<float>(t.At(r, c) +
                                          sn * chunk.fine_bin_sigma * sigma);
        }
      }
    }
  }
  return out;
}

}  // namespace cachegen
