// Figure 5: entropy (bits per element) of quantized KV values under four
// grouping strategies — none, by token position, by channel, by layer.
// Grouping by channel or layer should cut entropy substantially; grouping by
// token barely helps (Insight 3).
#include "bench_common.h"
#include "common/stats.h"
#include "llm/synthetic_model.h"
#include "quant/symbol_kernels.h"

using namespace cachegen;

int main() {
  bench::PrintHeader("Figure 5: entropy under grouping strategies",
                     "Llama-7B/13B, 2 contexts x 800 tokens, 8-bit-grid symbols");
  for (const char* name : {"llama-7b", "llama-13b"}) {
    const ModelConfig cfg = ModelConfig::Preset(name);
    const SyntheticModel model(cfg);

    // Quantize all values on one global grid, x / 0.05 rounded and clamped
    // to +-512 (so entropy differences come from the grouping, not the
    // quantizer).
    constexpr uint32_t kMaxSym = 512;
    std::vector<int32_t> symbols;
    std::vector<uint32_t> by_token, by_channel, by_layer;
    for (uint64_t seed : {31u, 32u}) {
      const KVCache cache = model.Prefill({seed, 800});
      for (size_t l = 0; l < cfg.num_layers; ++l) {
        const Tensor& k = cache.layer(l).k;
        const std::vector<double> offset(k.cols(), 0.0), sigma(k.cols(), 1.0);
        std::vector<uint32_t> row(k.cols());
        for (size_t t = 0; t < k.rows(); ++t) {
          QuantizeRow(k.Row(t).data(), offset.data(), sigma.data(), 0.05,
                      kMaxSym, k.cols(), row.data());
          for (size_t c = 0; c < k.cols(); ++c) {
            symbols.push_back(static_cast<int32_t>(row[c]) -
                              static_cast<int32_t>(kMaxSym));
            by_token.push_back(static_cast<uint32_t>(t));
            by_channel.push_back(static_cast<uint32_t>(c));
            by_layer.push_back(static_cast<uint32_t>(l));
          }
        }
      }
    }
    std::printf("\n-- %s --\n", name);
    TablePrinter table({"Grouping", "Entropy (bits/element)"});
    table.AddRow({"No grouping", TablePrinter::Fmt(EntropyBits(symbols, true), 3)});
    table.AddRow({"By token",
                  TablePrinter::Fmt(GroupedEntropyBits(symbols, by_token, 800, true), 3)});
    table.AddRow({"By channel",
                  TablePrinter::Fmt(GroupedEntropyBits(symbols, by_channel,
                                                       static_cast<uint32_t>(cfg.sim_channels),
                                                       true),
                                    3)});
    table.AddRow({"By layer",
                  TablePrinter::Fmt(GroupedEntropyBits(symbols, by_layer,
                                                       static_cast<uint32_t>(cfg.num_layers),
                                                       true),
                                    3)});
    std::printf("%s", table.Render().c_str());
  }
  std::printf(
      "\nshape check: by-channel and by-layer entropies sit well below both\n"
      "no-grouping and by-token (paper Fig. 5).\n");
  return 0;
}
