// End-to-end integration tests: the full CacheGen pipeline — prefill,
// offline encode + store, adaptive streaming over a bandwidth trace, fetch,
// decode/recompute, reassemble, generate — wired together the way the
// examples and benches use it.
#include <gtest/gtest.h>

#include "baselines/quant_baseline.h"
#include "net/link.h"
#include "serving/engine.h"
#include "streamer/streamer.h"
#include "workload/datasets.h"
#include "workload/qoe.h"

namespace cachegen {
namespace {

Engine::Options IntegrationOptions() {
  Engine::Options opts;
  opts.model_name = "mistral-7b";
  opts.chunk_tokens = 300;
  opts.calib_context_tokens = 600;
  opts.calib_num_contexts = 2;
  return opts;
}

Engine& SharedEngine() {
  static Engine e(IntegrationOptions());
  return e;
}

TEST(Integration, StoreStreamAssembleGenerate) {
  Engine& engine = SharedEngine();
  const ContextSpec ctx{9001, 1200};
  engine.StoreKV("it-ctx", ctx);
  const ContextPlan plan = engine.PlanFromCalibration(ctx.num_tokens);

  Link link(BandwidthTrace::Constant(3.0));
  const KVStreamer streamer(engine.cost(), engine.model(), /*slo_s=*/1.0,
                            DefaultEncodingLevels().size());
  const StreamResult sr = streamer.Stream(plan, link);
  ASSERT_EQ(sr.steps.size(), plan.chunks.size());

  // Materialize exactly what the streamer decided, then reassemble.
  std::vector<int> decisions;
  for (const auto& step : sr.steps) {
    decisions.push_back(step.config.text ? -1 : step.config.level_id);
  }
  const KVCache assembled = engine.AssembleKV("it-ctx", ctx, decisions);
  EXPECT_EQ(assembled.num_tokens(), ctx.num_tokens);

  // Reconstruction quality measured on the real tensors agrees with the
  // plan-level quality estimate to first order.
  const KVCache ref = engine.CalculateKV(ctx);
  const double q_measured =
      engine.quality_model().QualityFromKV(ref, assembled);
  EXPECT_NEAR(q_measured, sr.quality, 0.08);

  const GenerateResult gen = engine.GenerateWithKV(ctx, q_measured);
  EXPECT_FALSE(gen.text.empty());
}

TEST(Integration, AdaptationUnderFig7Trace) {
  // Bandwidth dips mid-stream; the run must still meet a loose SLO by
  // degrading, and the delivered quality reflects the degradation.
  Engine& engine = SharedEngine();
  const ContextSpec ctx{9002, 1500};
  engine.StoreKV("it-fig7", ctx);
  const ContextPlan plan = engine.PlanFromCalibration(ctx.num_tokens);

  Link link(BandwidthTrace::FromSegments({{0.0, 1.0}, {0.3, 0.08}, {1.5, 0.5}}));
  const KVStreamer streamer(engine.cost(), engine.model(), /*slo_s=*/2.5,
                            DefaultEncodingLevels().size());
  const StreamResult sr = streamer.Stream(plan, link);
  EXPECT_FALSE(sr.slo_violated) << sr.load_finish_s;
  EXPECT_LE(sr.quality, 1.0);
}

TEST(Integration, TextFallbackIsExact) {
  Engine& engine = SharedEngine();
  const ContextSpec ctx{9003, 600};
  engine.StoreKV("it-text", ctx);
  const KVCache all_text = engine.AssembleKV("it-text", ctx, {-1, -1});
  const KVCache ref = engine.CalculateKV(ctx);
  EXPECT_DOUBLE_EQ(all_text.Mse(ref), 0.0);
}

TEST(Integration, WorkloadSweepProducesConsistentOrdering) {
  // For every dataset, the TTFT ordering CacheGen < quant-8 < text holds at
  // 3 Gbps for long contexts (Fig. 8's qualitative result).
  Engine& engine = SharedEngine();
  TTFTModel ttft = engine.MakeTTFTModel();
  for (DatasetKind kind : AllDatasets()) {
    const Dataset dataset(kind);
    for (const ContextSpec& ctx : dataset.Sample(3)) {
      if (ctx.num_tokens < 2000) continue;  // short contexts legitimately flip
      const double cg = ttft.CacheGen(ctx.num_tokens, 3.0).Total();
      const double q8 = ttft.Quant(8, ctx.num_tokens, 3.0).Total();
      const double tx = ttft.Text(ctx.num_tokens, 3.0).Total();
      EXPECT_LT(cg, q8) << dataset.info().name << " @ " << ctx.num_tokens;
      // Prefill's quadratic term overtakes the 8-bit transfer only on long
      // contexts; the paper's figures evaluate at ~9.6K where text loses.
      if (ctx.num_tokens >= 8000) {
        EXPECT_LT(q8, tx) << dataset.info().name << " @ " << ctx.num_tokens;
      }
    }
  }
}

TEST(Integration, QoEImprovesWithCacheGen) {
  Engine& engine = SharedEngine();
  TTFTModel ttft = engine.MakeTTFTModel();
  const QoEModel qoe;
  const auto& calib = ttft.calibration();
  const double mos_cachegen =
      qoe.Mos(ttft.CacheGen(9600, 3.0).Total(), calib.quality_per_level[1]);
  const double mos_text = qoe.Mos(ttft.Text(9600, 3.0).Total(), 1.0);
  EXPECT_GT(mos_cachegen, mos_text);
}

TEST(Integration, StorageCostOnParWithQuantBaseline) {
  // Fig. 14d: storing all level versions costs on the order of the single
  // 8-bit copy (not a blow-up).
  Engine& engine = SharedEngine();
  const ContextSpec ctx{9006, 900};
  engine.StoreKV("it-storage", ctx);
  const double stored =
      static_cast<double>(engine.store().ContextBytes("it-storage")) *
      engine.model().size_scale();
  const double quant8 = QuantBaseline::Bytes(engine.model(), ctx.num_tokens, 8);
  EXPECT_LT(stored, 1.5 * quant8);
  EXPECT_GT(stored, 0.1 * quant8);
}

}  // namespace
}  // namespace cachegen
