// Table 1: KV cache size (MB) and accuracy on Mistral-7B + LongChat for
// 8-bit quantization, CacheGen, H2O, CacheGen-on-H2O, LLMLingua, and
// CacheGen-on-LLMLingua.
//
// Paper reference values: 8-bit 622 MB / 1.00; CacheGen 176 MB / 0.98;
// H2O 282 MB / 0.97; CacheGen-on-H2O 71 MB / 0.97; LLMLingua 492 MB / 0.94;
// CacheGen-on-LLMLingua 183 MB / 0.94.
//
// Every run checks the claims the table carries and exits non-zero with a
// FAIL: line on stderr unless all hold: CacheGen is >= 3.5x smaller than
// 8-bit quantization (the abstract's lower bound) at accuracy >= 0.98 (the
// paper's row), and CacheGen on H2O / LLMLingua is smaller than the
// baseline it composes with at an accuracy loss of at most 0.01.
#include "baselines/h2o.h"
#include "baselines/llmlingua.h"
#include "baselines/quant_baseline.h"
#include "bench_common.h"
#include "workload/datasets.h"
#include "workload/metrics.h"

using namespace cachegen;

int main() {
  bench::PrintHeader("Table 1: size-vs-accuracy headline (Mistral-7B, LongChat)",
                     "3 LongChat contexts (~9.4K tokens), default level");
  Engine engine(bench::FastEngineOptions("mistral-7b"));
  const Dataset dataset(DatasetKind::kLongChat);
  const auto contexts = dataset.Sample(3);
  const QualityModel& qm = engine.quality_model();
  const double scale = engine.model().size_scale();

  std::vector<EvalPoint> points;
  for (const ContextSpec& ctx : contexts) {
    const KVCache cache = engine.CalculateKV(ctx);
    const auto importance = engine.llm().TokenImportance(ctx);

    // 8-bit quantization baseline.
    {
      const QuantBaselineResult r = QuantBaseline(8).Apply(cache);
      points.push_back({"8-bit quantization", r.RealBytes(engine.model()), 0,
                        qm.QualityFromKV(cache, r.recon), 0});
    }
    // CacheGen at the default level.
    {
      const EncodedChunk e = engine.EncoderFor(1).EncodeChunk(cache);
      const KVCache recon = engine.DecoderFor(1).DecodeChunk(e);
      points.push_back({"CacheGen", static_cast<double>(e.PayloadBytes()) * scale, 0,
                        qm.QualityFromKV(cache, recon), 0});
    }
    // H2O: keep 45% of tokens, 8-bit quantized for transmission.
    const TokenDropResult h2o = H2O(0.45).Apply(cache, importance);
    {
      const QuantBaselineResult r = QuantBaseline(8).Apply(h2o.pruned);
      const double q = ComposeQuality(
          {qm.QualityFromKV(h2o.pruned, r.recon),
           qm.QualityFromDrop(h2o.lost_mass, /*attention_aware=*/true)});
      points.push_back({"H2O", r.RealBytes(engine.model()), 0, q, 0});
    }
    // CacheGen on H2O's pruned cache.
    {
      const EncodedChunk e = engine.EncoderFor(1).EncodeChunk(h2o.pruned);
      const KVCache recon = engine.DecoderFor(1).DecodeChunk(e);
      const double q = ComposeQuality(
          {qm.QualityFromKV(h2o.pruned, recon),
           qm.QualityFromDrop(h2o.lost_mass, /*attention_aware=*/true)});
      points.push_back({"CacheGen on H2O",
                        static_cast<double>(e.PayloadBytes()) * scale, 0, q, 0});
    }
    // LLMLingua: keep 79% of text tokens, 8-bit quantized KV.
    const TokenDropResult lingua = LLMLingua(0.79).Apply(cache, importance, ctx.seed);
    {
      const QuantBaselineResult r = QuantBaseline(8).Apply(lingua.pruned);
      const double q = ComposeQuality(
          {qm.QualityFromKV(lingua.pruned, r.recon),
           qm.QualityFromDrop(lingua.lost_mass, /*attention_aware=*/false)});
      points.push_back({"LLMLingua", r.RealBytes(engine.model()), 0, q, 0});
    }
    // CacheGen on LLMLingua's pruned cache.
    {
      const EncodedChunk e = engine.EncoderFor(1).EncodeChunk(lingua.pruned);
      const KVCache recon = engine.DecoderFor(1).DecodeChunk(e);
      const double q = ComposeQuality(
          {qm.QualityFromKV(lingua.pruned, recon),
           qm.QualityFromDrop(lingua.lost_mass, /*attention_aware=*/false)});
      points.push_back({"CacheGen on LLMLingua",
                        static_cast<double>(e.PayloadBytes()) * scale, 0, q, 0});
    }
  }

  TablePrinter table({"Technique", "KV cache size (MB)", "Accuracy", "Paper (MB/acc)"});
  const std::vector<std::string> paper = {"622 / 1.00", "176 / 0.98", "282 / 0.97",
                                          "71 / 0.97",  "492 / 0.94", "183 / 0.94"};
  const auto agg = AggregateByMethod(points);
  for (size_t i = 0; i < agg.size(); ++i) {
    table.AddRow({agg[i].method, bench::Mb(agg[i].kv_bytes),
                  TablePrinter::Fmt(dataset.MetricFromQuality(agg[i].quality), 2),
                  i < paper.size() ? paper[i] : ""});
  }
  std::printf("%s", table.Render().c_str());

  const auto size_mb = [&](size_t i) { return agg[i].kv_bytes / 1e6; };
  const auto accuracy = [&](size_t i) {
    return dataset.MetricFromQuality(agg[i].quality);
  };
  // Rows in insertion order: 8-bit, CacheGen, H2O, CacheGen on H2O,
  // LLMLingua, CacheGen on LLMLingua.
  if (agg.size() != 6) {
    std::fprintf(stderr, "FAIL: expected 6 rows, got %zu\n", agg.size());
    return 1;
  }
  bool ok = true;
  if (size_mb(0) / size_mb(1) < 3.5) {
    std::fprintf(stderr, "FAIL: 8-bit / CacheGen size %.2fx < 3.5x\n",
                 size_mb(0) / size_mb(1));
    ok = false;
  }
  if (accuracy(1) < 0.98) {
    std::fprintf(stderr, "FAIL: CacheGen accuracy %.4f < 0.98\n", accuracy(1));
    ok = false;
  }
  for (const size_t base : {2u, 4u}) {
    const size_t composed = base + 1;
    if (!(size_mb(composed) < size_mb(base)) ||
        accuracy(base) - accuracy(composed) > 0.01) {
      std::fprintf(stderr,
                   "FAIL: %s is %.2f MB at accuracy %.4f against %s's %.2f MB "
                   "at %.4f (must be smaller, losing <= 0.01)\n",
                   agg[composed].method.c_str(), size_mb(composed),
                   accuracy(composed), agg[base].method.c_str(), size_mb(base),
                   accuracy(base));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
