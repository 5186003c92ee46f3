// Figure 8: TTFT vs quality across three models (Mistral-7B, Llama-34B,
// Llama-70B) and four datasets at 3 Gbps. For each (model, dataset), prints
// the TTFT and task metric of the text baseline, the quantization baseline
// at 3/4/8 bits, and CacheGen at its encoding levels.
//
// Every run checks the figure's claim in each (model, dataset) block and
// exits non-zero with a FAIL: line on stderr unless it holds: CacheGen-L1's
// TTFT is at most 1/3.2 of both Text's and Quant-8's (the abstract's
// "3.2-3.7x less delay"), at a task metric within 1% of Quant-8's in the
// direction that counts as worse.
#include <algorithm>
#include <limits>

#include "bench_common.h"
#include "workload/datasets.h"
#include "workload/metrics.h"

using namespace cachegen;

int main() {
  bench::PrintHeader("Figure 8: TTFT vs quality across models and datasets",
                     "3 Gbps, 4 contexts per dataset, calibrated codec sizes");
  const double kBandwidthGbps = 3.0;
  constexpr double kMinSpeedup = 3.2;
  constexpr double kMaxMetricLoss = 0.01;
  double min_vs_text = std::numeric_limits<double>::infinity();
  double min_vs_quant8 = std::numeric_limits<double>::infinity();
  double max_loss = -std::numeric_limits<double>::infinity();
  bool ok = true;
  for (const char* model_name : {"mistral-7b", "llama-34b", "llama-70b"}) {
    Engine engine(bench::FastEngineOptions(model_name));
    TTFTModel ttft = engine.MakeTTFTModel();
    const auto& calib = engine.calibration();
    for (DatasetKind kind : AllDatasets()) {
      const Dataset dataset(kind);
      std::vector<EvalPoint> points;
      for (const ContextSpec& ctx : dataset.Sample(4)) {
        const size_t T = ctx.num_tokens;
        {
          const TTFTBreakdown b = ttft.Text(T, kBandwidthGbps);
          points.push_back({"Text", b.bytes, b.Total(), b.quality,
                            dataset.MetricFromQuality(b.quality)});
        }
        for (int bits : {3, 4, 8}) {
          const TTFTBreakdown b = ttft.Quant(bits, T, kBandwidthGbps);
          points.push_back({"Quant-" + std::to_string(bits), b.bytes, b.Total(),
                            b.quality, dataset.MetricFromQuality(b.quality)});
        }
        for (size_t lv = 0; lv < calib.bytes_per_token_per_level.size(); ++lv) {
          const TTFTBreakdown b =
              ttft.CacheGen(T, kBandwidthGbps, 1.0, static_cast<int>(lv));
          points.push_back({"CacheGen-L" + std::to_string(lv), b.bytes, b.Total(),
                            b.quality, dataset.MetricFromQuality(b.quality)});
        }
      }
      std::printf("\n-- %s on %s (metric: %s) --\n", model_name,
                  dataset.info().name.c_str(),
                  dataset.info().metric == TaskMetric::kPerplexity ? "perplexity (lower=better)"
                  : dataset.info().metric == TaskMetric::kF1       ? "F1 (%)"
                                                                   : "accuracy");
      TablePrinter table({"Method", "TTFT (s)", "Metric", "KV sent (MB)"});
      const std::vector<EvalPoint> agg = AggregateByMethod(points);
      for (const EvalPoint& p : agg) {
        table.AddRow({p.method, TablePrinter::Fmt(p.ttft_s, 2),
                      TablePrinter::Fmt(p.metric, 2), bench::Mb(p.kv_bytes)});
      }
      std::printf("%s", table.Render().c_str());

      const auto row = [&](const char* method) {
        return *std::find_if(agg.begin(), agg.end(), [&](const EvalPoint& p) {
          return p.method == method;
        });
      };
      const EvalPoint text = row("Text");
      const EvalPoint quant8 = row("Quant-8");
      const EvalPoint cachegen = row("CacheGen-L1");
      const double vs_text = text.ttft_s / cachegen.ttft_s;
      const double vs_quant8 = quant8.ttft_s / cachegen.ttft_s;
      // Relative metric loss against Quant-8: a higher perplexity, or a
      // lower F1 / accuracy.
      const double loss =
          (dataset.info().metric == TaskMetric::kPerplexity
               ? cachegen.metric - quant8.metric
               : quant8.metric - cachegen.metric) /
          quant8.metric;
      min_vs_text = std::min(min_vs_text, vs_text);
      min_vs_quant8 = std::min(min_vs_quant8, vs_quant8);
      max_loss = std::max(max_loss, loss);
      if (vs_text < kMinSpeedup || vs_quant8 < kMinSpeedup ||
          loss > kMaxMetricLoss) {
        std::fprintf(stderr,
                     "FAIL: %s on %s: CacheGen-L1 TTFT %.3fx lower than Text "
                     "and %.3fx lower than Quant-8 (must be >= %.1fx), metric "
                     "loss %.2f%% vs Quant-8 (must be <= %.0f%%)\n",
                     model_name, dataset.info().name.c_str(), vs_text,
                     vs_quant8, kMinSpeedup, 100 * loss, 100 * kMaxMetricLoss);
        ok = false;
      }
    }
  }
  std::printf(
      "\nFig. 8 check over all blocks: CacheGen-L1's TTFT is >= %.2fx lower "
      "than Text's\nand >= %.2fx lower than Quant-8's (gate %.1fx); its metric "
      "is <= %.2f%% worse\nthan Quant-8's (gate %.0f%%): %s\n",
      min_vs_text, min_vs_quant8, kMinSpeedup, 100 * max_loss,
      100 * kMaxMetricLoss, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
