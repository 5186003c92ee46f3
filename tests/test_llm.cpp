#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/stats.h"
#include "llm/cost_model.h"
#include "llm/model_config.h"
#include "llm/quality_model.h"
#include "llm/synthetic_model.h"

namespace cachegen {
namespace {

TEST(ModelConfig, PresetsExist) {
  for (const char* name : {"mistral-7b", "llama-3b", "llama-7b", "llama-13b",
                           "llama-34b", "llama-70b"}) {
    const ModelConfig c = ModelConfig::Preset(name);
    EXPECT_GT(c.num_layers, 0u) << name;
    EXPECT_GT(c.real_channels, 0u) << name;
    EXPECT_GT(c.sim_channels, 0u) << name;
  }
  EXPECT_THROW(ModelConfig::Preset("gpt-5"), std::invalid_argument);
}

TEST(ModelConfig, MistralKVSizeMatchesPaper) {
  // Paper §1/§7: a 9.6K-token Mistral-7B KV cache is 622 MB at 8 bits,
  // i.e. ~1.24 GB at fp16.
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const double bytes = m.RawKVBytes(9600);
  EXPECT_NEAR(bytes / 1e6, 1258.0, 10.0);
}

TEST(ModelConfig, Llama34bKVSizeMatchesPaper) {
  // Paper §3: Llama-34B over ~80K tokens -> ~19 GB KV cache.
  const ModelConfig m = ModelConfig::Preset("llama-34b");
  EXPECT_NEAR(m.RawKVBytes(80000) / 1e9, 19.0, 4.0);
}

TEST(ModelConfig, SizeScaleConsistency) {
  const ModelConfig m = ModelConfig::Preset("llama-7b");
  EXPECT_NEAR(static_cast<double>(m.SimElements(100)) * m.size_scale() *
                  static_cast<double>(m.bytes_per_element),
              m.RawKVBytes(100), 1.0);
}

TEST(SyntheticModel, PrefillShape) {
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  const KVCache cache = model.Prefill({1, 64});
  EXPECT_EQ(cache.num_layers(), cfg.num_layers);
  EXPECT_EQ(cache.num_tokens(), 64u);
  EXPECT_EQ(cache.num_channels(), cfg.sim_channels);
}

TEST(SyntheticModel, Deterministic) {
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel a(cfg, 1), b(cfg, 1);
  const KVCache ca = a.Prefill({7, 50});
  const KVCache cb = b.Prefill({7, 50});
  EXPECT_DOUBLE_EQ(ca.Mse(cb), 0.0);
}

TEST(SyntheticModel, DifferentContextsDiffer) {
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  const KVCache a = model.Prefill({1, 50});
  const KVCache b = model.Prefill({2, 50});
  EXPECT_GT(a.Mse(b), 0.01);
}

TEST(SyntheticModel, PrefillRangeMatchesSlice) {
  // The streamer's text fallback recomputes chunks; it must be bit-exact
  // with the full prefill (§5.3).
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  const ContextSpec ctx{42, 120};
  const KVCache full = model.Prefill(ctx);
  const KVCache part = model.PrefillRange(ctx, 37, 95);
  EXPECT_DOUBLE_EQ(part.Mse(full.SliceTokens(37, 95)), 0.0);
}

TEST(SyntheticModel, PrefillLayerMatchesPrefillBitForBit) {
  // Engine bring-up profiles one layer at a time from PrefillLayer, so each
  // layer must be exactly that layer of the full prefill, for a plain and a
  // prefix-composed context, into a fresh and into a reused buffer.
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  KVLayer reused;
  for (const ContextSpec& ctx :
       {ContextSpec{42, 120}, ContextSpec{43, 150, 9, 64}}) {
    const KVCache full = model.Prefill(ctx);
    for (size_t l = 0; l < cfg.num_layers; ++l) {
      KVLayer fresh;
      model.PrefillLayer(ctx, l, fresh);
      model.PrefillLayer(ctx, l, reused);
      for (const KVLayer* got : {&fresh, &reused}) {
        for (int kind = 0; kind < 2; ++kind) {
          const Tensor& want = kind == 0 ? full.layer(l).k : full.layer(l).v;
          const Tensor& have = kind == 0 ? got->k : got->v;
          ASSERT_TRUE(have.SameShape(want)) << "layer " << l;
          ASSERT_EQ(std::memcmp(have.Data().data(), want.Data().data(),
                                want.size() * sizeof(float)),
                    0)
              << "seed " << ctx.seed << " layer " << l << " kind " << kind;
        }
      }
    }
  }
  KVLayer out;
  EXPECT_THROW(model.PrefillLayer({1, 10}, cfg.num_layers, out),
               std::out_of_range);
}

TEST(SyntheticModel, PrefillRangeValidation) {
  const SyntheticModel model(ModelConfig::Preset("mistral-7b"));
  EXPECT_THROW(model.PrefillRange({1, 10}, 5, 3), std::out_of_range);
  EXPECT_THROW(model.PrefillRange({1, 10}, 0, 11), std::out_of_range);
}

TEST(SyntheticModel, TokenLocalityInsight1) {
  // Consecutive-token deltas must have meaningfully lower variance than the
  // raw values (paper Fig. 3 reports 2.4-2.9x; we accept a band around it).
  const ModelConfig cfg = ModelConfig::Preset("llama-7b");
  const SyntheticModel model(cfg);
  const KVCache cache = model.Prefill({3, 600});
  RunningStats raw, delta;
  for (size_t l = 0; l < cache.num_layers(); ++l) {
    const Tensor& k = cache.layer(l).k;
    for (size_t c = 0; c < k.cols(); ++c) {
      for (size_t t = 0; t < k.rows(); ++t) {
        raw.Add(k.At(t, c));
        if (t > 0) delta.Add(k.At(t, c) - k.At(t - 1, c));
      }
    }
  }
  const double ratio = raw.Variance() / delta.Variance();
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 10.0);
}

TEST(SyntheticModel, ChannelStatsPersistAcrossContexts) {
  // Insight 3 requires per-(layer,channel) structure shared by all contexts:
  // a channel's *scale* measured on two different contexts must agree much
  // better than the scales of different channels agree with each other —
  // that persistence is what offline per-channel profiling exploits.
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  const KVCache a = model.Prefill({10, 400});
  const KVCache b = model.Prefill({20, 400});
  const Tensor& ka = a.layer(5).k;
  const Tensor& kb = b.layer(5).k;
  auto channel_log_std = [](const Tensor& t, size_t c) {
    RunningStats rs;
    for (size_t r = 0; r < t.rows(); ++r) rs.Add(t.At(r, c));
    return std::log(std::max(rs.StdDev(), 1e-9));
  };
  double cross_context = 0.0, cross_channel = 0.0;
  size_t n = 0;
  for (size_t c = 0; c + 1 < ka.cols(); ++c) {
    const double sa = channel_log_std(ka, c);
    const double sb = channel_log_std(kb, c);
    const double sn = channel_log_std(ka, c + 1);
    cross_context += (sa - sb) * (sa - sb);
    cross_channel += (sa - sn) * (sa - sn);
    ++n;
  }
  EXPECT_LT(cross_context / static_cast<double>(n),
            0.5 * cross_channel / static_cast<double>(n));
}

TEST(SyntheticModel, ImportanceIsNormalizedAndHeavyTailed) {
  const SyntheticModel model(ModelConfig::Preset("mistral-7b"));
  const auto w = model.TokenImportance({5, 2000});
  EXPECT_EQ(w.size(), 2000u);
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Top 45% of tokens should carry the bulk of the mass (heavy hitters).
  std::vector<double> sorted = w;
  std::sort(sorted.rbegin(), sorted.rend());
  double top = 0.0;
  for (size_t i = 0; i < 900; ++i) top += sorted[i];
  EXPECT_GT(top, 0.85);
}

TEST(CostModel, PrefillSuperlinear) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const double t1 = cost.PrefillSeconds(m, 1000);
  const double t10 = cost.PrefillSeconds(m, 10000);
  EXPECT_GT(t10, 10.0 * t1);  // superlinear growth (§2.1)
}

TEST(CostModel, PrefillCalibration) {
  // ~2 s to prefill a 9.6K context on a 7B model (paper §1 / Fig. 8c).
  const CostModel cost;
  const double s = cost.PrefillSeconds(ModelConfig::Preset("mistral-7b"), 9600);
  EXPECT_GT(s, 1.0);
  EXPECT_LT(s, 3.0);
}

TEST(CostModel, BiggerModelsSlower) {
  const CostModel cost;
  const double s7 = cost.PrefillSeconds(ModelConfig::Preset("mistral-7b"), 5000);
  const double s34 = cost.PrefillSeconds(ModelConfig::Preset("llama-34b"), 5000);
  const double s70 = cost.PrefillSeconds(ModelConfig::Preset("llama-70b"), 5000);
  EXPECT_LT(s7, s34);
  EXPECT_LT(s34, s70);
}

TEST(CostModel, GpuShareScalesPrefill) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  EXPECT_NEAR(cost.PrefillSeconds(m, 4000, 0.25), 4.0 * cost.PrefillSeconds(m, 4000),
              1e-9);
  EXPECT_THROW(cost.PrefillSeconds(m, 100, 0.0), std::invalid_argument);
  EXPECT_THROW(cost.PrefillSeconds(m, 100, 1.5), std::invalid_argument);
}

TEST(CostModel, DecodeMuchCheaperThanPrefill) {
  // Fig. 14b: CacheGen's decode compute is negligible vs prefill.
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const double decode = cost.DecodeSeconds(m.RawKVBytes(9600));
  const double prefill = cost.PrefillSeconds(m, 9600);
  EXPECT_LT(decode, prefill / 10.0);
}

TEST(QualityModel, PerfectReconstructionIsLossless) {
  const QualityModel qm;
  EXPECT_DOUBLE_EQ(qm.QualityFromDistortion(0.0), 1.0);
  EXPECT_DOUBLE_EQ(qm.QualityFromDrop(0.0, true), 1.0);
}

TEST(QualityModel, MonotoneInError) {
  const QualityModel qm;
  double prev = 1.0;
  for (double nmse : {1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0}) {
    const double q = qm.QualityFromDistortion(nmse);
    EXPECT_LT(q, prev);
    prev = q;
  }
}

TEST(QualityModel, EarlyLayerLossHurtsMore) {
  // Insight 2 / Fig. 4: the same nMSE applied to the first layer group must
  // reduce quality more than when applied to the last group.
  const QualityModel qm;
  std::vector<double> early(30, 0.0), late(30, 0.0);
  for (int l = 0; l < 10; ++l) early[static_cast<size_t>(l)] = 0.5;
  for (int l = 20; l < 30; ++l) late[static_cast<size_t>(l)] = 0.5;
  EXPECT_LT(qm.QualityFromDistortion(qm.WeightedNmse(early)),
            qm.QualityFromDistortion(qm.WeightedNmse(late)));
}

TEST(QualityModel, DropQualityAttentionAwareGentler) {
  const QualityModel qm;
  EXPECT_GT(qm.QualityFromDrop(0.1, true), qm.QualityFromDrop(0.1, false) - 1e-12);
  EXPECT_LT(qm.QualityFromDrop(0.5, true), 1.0);
}

TEST(QualityModel, WeightedNmseFromCaches) {
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  const KVCache cache = model.Prefill({9, 100});
  const QualityModel qm;
  EXPECT_DOUBLE_EQ(qm.WeightedNmse(cache, cache), 0.0);
  EXPECT_DOUBLE_EQ(qm.QualityFromKV(cache, cache), 1.0);
}

}  // namespace
}  // namespace cachegen
