#include <gtest/gtest.h>

#include "workload/datasets.h"
#include "workload/metrics.h"
#include "workload/qoe.h"

namespace cachegen {
namespace {

TEST(Datasets, AllFourPresent) {
  EXPECT_EQ(AllDatasets().size(), 4u);
  for (DatasetKind kind : AllDatasets()) {
    const DatasetInfo& info = GetDatasetInfo(kind);
    EXPECT_FALSE(info.name.empty());
    EXPECT_GT(info.count, 0u);
    EXPECT_GT(info.median_tokens, 0.0);
  }
}

TEST(Datasets, Table2Statistics) {
  // Spot-check against the paper's Table 2.
  const DatasetInfo& lc = GetDatasetInfo(DatasetKind::kLongChat);
  EXPECT_EQ(lc.count, 200u);
  EXPECT_NEAR(lc.median_tokens, 9400, 1.0);
  EXPECT_NEAR(lc.std_tokens, 164, 1.0);
  const DatasetInfo& wt = GetDatasetInfo(DatasetKind::kWikiText);
  EXPECT_EQ(wt.count, 62u);
  EXPECT_EQ(wt.metric, TaskMetric::kPerplexity);
}

TEST(Datasets, SampleDeterministicPerSeed) {
  const Dataset a(DatasetKind::kTriviaQA, 5), b(DatasetKind::kTriviaQA, 5);
  const auto sa = a.Sample(10);
  const auto sb = b.Sample(10);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sa[i].seed, sb[i].seed);
    EXPECT_EQ(sa[i].num_tokens, sb[i].num_tokens);
  }
}

TEST(Datasets, LongChatLengthsTight) {
  // LongChat has std 164 around median 9400: sampled lengths stay close.
  const Dataset d(DatasetKind::kLongChat);
  for (const auto& ctx : d.Sample(50)) {
    EXPECT_GT(ctx.num_tokens, 8500u);
    EXPECT_LT(ctx.num_tokens, 10500u);
  }
}

TEST(Datasets, WideVarianceDatasetsVary) {
  const Dataset d(DatasetKind::kTriviaQA);
  const auto contexts = d.Sample(100);
  size_t min_len = SIZE_MAX, max_len = 0;
  for (const auto& ctx : contexts) {
    min_len = std::min(min_len, ctx.num_tokens);
    max_len = std::max(max_len, ctx.num_tokens);
  }
  EXPECT_GT(max_len - min_len, 4000u);
  EXPECT_LE(max_len, static_cast<size_t>(15000 * 1.08) + 1);
}

TEST(Datasets, DistinctSeedsAcrossContexts) {
  const Dataset d(DatasetKind::kNarrativeQA);
  const auto contexts = d.Sample(20);
  for (size_t i = 1; i < contexts.size(); ++i) {
    EXPECT_NE(contexts[i].seed, contexts[i - 1].seed);
  }
}

TEST(Datasets, MetricConversion) {
  const Dataset lc(DatasetKind::kLongChat);
  EXPECT_DOUBLE_EQ(lc.MetricFromQuality(1.0), 1.0);
  EXPECT_DOUBLE_EQ(lc.MetricFromQuality(0.5), 0.5);
  const Dataset tq(DatasetKind::kTriviaQA);
  EXPECT_NEAR(tq.MetricFromQuality(1.0), 92.0, 1e-9);
  EXPECT_GT(tq.MetricFromQuality(0.9), tq.MetricFromQuality(0.5));  // F1 rises
  const Dataset wt(DatasetKind::kWikiText);
  EXPECT_NEAR(wt.MetricFromQuality(1.0), 5.9, 1e-9);
  EXPECT_GT(wt.MetricFromQuality(0.5), wt.MetricFromQuality(1.0));  // ppl rises
}

TEST(Metrics, AggregateByMethodAverages) {
  std::vector<EvalPoint> points;
  points.push_back({"cachegen", 100, 1.0, 0.9, 0.9});
  points.push_back({"cachegen", 200, 2.0, 0.7, 0.7});
  points.push_back({"text", 10, 5.0, 1.0, 1.0});
  const auto agg = AggregateByMethod(points);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg[0].method, "cachegen");
  EXPECT_NEAR(agg[0].kv_bytes, 150.0, 1e-12);
  EXPECT_NEAR(agg[0].ttft_s, 1.5, 1e-12);
  EXPECT_NEAR(agg[0].quality, 0.8, 1e-12);
  EXPECT_EQ(agg[1].method, "text");
}

TEST(Metrics, AggregatePreservesFirstAppearanceOrder) {
  std::vector<EvalPoint> points;
  points.push_back({"b", 1, 1, 1, 1});
  points.push_back({"a", 1, 1, 1, 1});
  points.push_back({"b", 1, 1, 1, 1});
  const auto agg = AggregateByMethod(points);
  EXPECT_EQ(agg[0].method, "b");
  EXPECT_EQ(agg[1].method, "a");
}

TEST(Metrics, ComposeQualityMultiplies) {
  EXPECT_DOUBLE_EQ(ComposeQuality({1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(ComposeQuality({0.5, 0.5}), 0.25);
  EXPECT_DOUBLE_EQ(ComposeQuality({2.0, 0.5}), 0.5);  // clamped to [0,1]
}

TEST(QoE, FasterIsBetter) {
  const QoEModel qoe;
  EXPECT_GT(qoe.Mos(0.3), qoe.Mos(2.0));
  EXPECT_GT(qoe.Mos(2.0), qoe.Mos(6.0));
}

TEST(QoE, BoundsRespected) {
  const QoEModel qoe;
  EXPECT_LE(qoe.Mos(0.0), 5.0);
  EXPECT_GE(qoe.Mos(1000.0), 1.0);
}

TEST(QoE, QualityCapsScore) {
  const QoEModel qoe;
  EXPECT_GT(qoe.Mos(0.5, 1.0), qoe.Mos(0.5, 0.5));
}

TEST(QoE, Figure16Ordering) {
  // CacheGen (fast) > quantization (medium) > text/original (slow).
  const QoEModel qoe;
  const double cachegen = qoe.Mos(0.6, 0.98);
  const double quant = qoe.Mos(1.8, 1.0);
  const double original = qoe.Mos(3.5, 1.0);
  EXPECT_GT(cachegen, quant);
  EXPECT_GT(quant, original);
  EXPECT_GT(cachegen, 3.3);  // Fig. 16 shows ~3.5-4 for CacheGen
}

TEST(QoE, RefinementBlendsBetweenBaseAndFinal) {
  const QoEModel qoe;
  // An instant refinement scores like the final quality, an infinitely late
  // one like the base; in between the score is monotone in the delay.
  EXPECT_DOUBLE_EQ(qoe.MosWithRefinement(0.5, 0.85, 0.99, 0.0),
                   qoe.Mos(0.5, 0.99));
  EXPECT_NEAR(qoe.MosWithRefinement(0.5, 0.85, 0.99, 1e6), qoe.Mos(0.5, 0.85),
              1e-9);
  const double early = qoe.MosWithRefinement(0.5, 0.85, 0.99, 0.2);
  const double late = qoe.MosWithRefinement(0.5, 0.85, 0.99, 2.0);
  EXPECT_GT(early, late);
  EXPECT_GT(early, qoe.Mos(0.5, 0.85));
  EXPECT_LT(late, qoe.Mos(0.5, 0.99));
  // Progressive upgrades never score below the base-only stream.
  EXPECT_GE(late, qoe.Mos(0.5, 0.85) - 1e-12);
  // No refinement info degenerates to the plain model.
  EXPECT_DOUBLE_EQ(qoe.MosWithRefinement(1.0, 0.9, 0.9, 0.0), qoe.Mos(1.0, 0.9));
}

}  // namespace
}  // namespace cachegen
