#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "serving/engine.h"
#include "serving/ttft.h"

namespace cachegen {
namespace {

class ServingTest : public ::testing::Test {
 protected:
  static Engine::Options MakeOptions(size_t chunk_tokens, size_t calib_tokens,
                                     size_t calib_contexts) {
    Engine::Options opts;
    opts.model_name = "mistral-7b";
    opts.chunk_tokens = chunk_tokens;
    opts.calib_context_tokens = calib_tokens;
    opts.calib_num_contexts = calib_contexts;
    return opts;
  }

  // One shared engine: construction builds the codec profile.
  static Engine& engine() {
    static Engine e(MakeOptions(300, 600, 2));
    return e;
  }
};

TEST_F(ServingTest, CalculateKVShape) {
  const KVCache cache = engine().CalculateKV({1, 123});
  EXPECT_EQ(cache.num_tokens(), 123u);
  EXPECT_EQ(cache.num_layers(), engine().model().num_layers);
}

TEST_F(ServingTest, CalibrationSane) {
  const CodecCalibration& calib = engine().calibration();
  ASSERT_EQ(calib.bytes_per_token_per_level.size(), DefaultEncodingLevels().size());
  // Sizes shrink with level; quality drops with level.
  for (size_t i = 1; i < calib.bytes_per_token_per_level.size(); ++i) {
    EXPECT_LT(calib.bytes_per_token_per_level[i],
              calib.bytes_per_token_per_level[i - 1]);
    EXPECT_LT(calib.quality_per_level[i], calib.quality_per_level[i - 1] + 1e-9);
  }
  // Default level: ~0.98 quality at 3.5-4.3x below 8-bit (paper headline).
  EXPECT_GT(calib.quality_per_level[1], 0.95);
  const double ratio =
      calib.quant_bytes_per_token.at(8) / calib.bytes_per_token_per_level[1];
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
  EXPECT_GT(calib.quant_quality.at(8), 0.99);
}

TEST_F(ServingTest, StoreKVPersistsAllChunksAndLevels) {
  const ContextSpec ctx{500, 900};
  const ContextPlan plan = engine().StoreKV("ctx-500", ctx);
  EXPECT_EQ(plan.chunks.size(), 3u);
  EXPECT_EQ(plan.total_tokens, 900u);
  for (uint32_t c = 0; c < 3; ++c) {
    for (const auto& level : DefaultEncodingLevels()) {
      EXPECT_TRUE(engine().GetKV("ctx-500", c, level.id).has_value())
          << "chunk " << c << " level " << level.id;
    }
  }
  EXPECT_FALSE(engine().GetKV("ctx-500", 3, 0).has_value());
  EXPECT_FALSE(engine().GetKV("other", 0, 0).has_value());
}

TEST_F(ServingTest, PlanSizesDecreaseWithLevel) {
  const ContextSpec ctx{501, 600};
  const ContextPlan plan = engine().StoreKV("ctx-501", ctx);
  for (const auto& chunk : plan.chunks) {
    for (size_t lv = 1; lv < chunk.bytes_per_level.size(); ++lv) {
      EXPECT_LT(chunk.bytes_per_level[lv], chunk.bytes_per_level[lv - 1]);
    }
  }
}

TEST_F(ServingTest, AssembleKVMixedConfigs) {
  const ContextSpec ctx{502, 900};
  engine().StoreKV("ctx-502", ctx);
  const KVCache ref = engine().CalculateKV(ctx);
  // Chunk 0 at level 0, chunk 1 as text (exact), chunk 2 at level 3.
  const KVCache mixed = engine().AssembleKV("ctx-502", ctx, {0, -1, 3});
  ASSERT_EQ(mixed.num_tokens(), 900u);
  // The text chunk matches the reference exactly.
  const double text_mse = mixed.SliceTokens(300, 600).Mse(ref.SliceTokens(300, 600));
  EXPECT_DOUBLE_EQ(text_mse, 0.0);
  // The level-3 chunk is lossier than the level-0 chunk.
  const double mse_l0 = mixed.SliceTokens(0, 300).Mse(ref.SliceTokens(0, 300));
  const double mse_l3 = mixed.SliceTokens(600, 900).Mse(ref.SliceTokens(600, 900));
  EXPECT_LT(mse_l0, mse_l3);
  EXPECT_GT(mse_l0, 0.0);
}

TEST_F(ServingTest, AssembleKVIntoReusedBuffer) {
  // One buffer reassembles contexts whose lengths grow, shrink, then grow,
  // over 1- and 3-chunk contexts mixing text and KV decisions. Each result
  // equals the by-value AssembleKV bit for bit, so no row of an earlier,
  // longer context survives in a later one.
  struct Case {
    ContextSpec ctx;
    std::vector<int> levels;
  };
  const std::vector<Case> cases = {
      {{510, 250}, {1}},          {{511, 900}, {0, -1, 3}},
      {{512, 120}, {-1}},         {{513, 800}, {2, 1, -1}},
      {{514, 280}, {3}},          {{515, 870}, {-1, 2, 0}},
  };
  KVCache buf;
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const std::string id = "ctx-reuse-" + std::to_string(i);
    engine().StoreKV(id, c.ctx);
    engine().AssembleKV(id, c.ctx, c.levels, buf);
    const KVCache ref = engine().AssembleKV(id, c.ctx, c.levels);
    ASSERT_EQ(buf.num_tokens(), c.ctx.num_tokens) << "context " << i;
    ASSERT_EQ(buf.num_layers(), ref.num_layers()) << "context " << i;
    for (size_t l = 0; l < ref.num_layers(); ++l) {
      for (int kind = 0; kind < 2; ++kind) {
        const Tensor& got = kind == 0 ? buf.layer(l).k : buf.layer(l).v;
        const Tensor& want = kind == 0 ? ref.layer(l).k : ref.layer(l).v;
        ASSERT_TRUE(got.SameShape(want)) << "context " << i;
        ASSERT_EQ(std::memcmp(got.Data().data(), want.Data().data(),
                              want.size() * sizeof(float)),
                  0)
            << "context " << i << " layer " << l;
      }
    }
  }
}

TEST_F(ServingTest, AssembleValidation) {
  const ContextSpec ctx{503, 600};
  engine().StoreKV("ctx-503", ctx);
  EXPECT_THROW(engine().AssembleKV("ctx-503", ctx, {0}), std::invalid_argument);
  EXPECT_THROW(engine().AssembleKV("missing", ctx, {0, 0}), std::runtime_error);
  // A stored chunk shorter than its range would leave a reused buffer's
  // earlier rows in place: rejected like a missing one.
  const KVCache short_part = engine().CalculateKV(ctx).SliceTokens(300, 500);
  engine().store().Put(
      {"ctx-503", 1, 0},
      SerializeChunk(engine().EncoderFor(0).EncodeChunk(short_part, 1, 300)));
  EXPECT_THROW(engine().AssembleKV("ctx-503", ctx, {0, 0}), std::runtime_error);
  EXPECT_NO_THROW(engine().AssembleKV("ctx-503", ctx, {0, -1}));
}

TEST_F(ServingTest, GenerateDeterministicAndQualitySensitive) {
  const ContextSpec ctx{504, 100};
  const GenerateResult a = engine().GenerateWithKV(ctx, 1.0);
  const GenerateResult b = engine().GenerateWithKV(ctx, 1.0);
  EXPECT_EQ(a.text, b.text);
  EXPECT_TRUE(a.correct);  // quality 1.0 always answers correctly
  const GenerateResult c = engine().GenerateWithKV(ctx, 0.0);
  EXPECT_FALSE(c.correct);
  EXPECT_NE(a.text, c.text);
}

TEST_F(ServingTest, TTFTTextDominatedByCompute) {
  TTFTModel ttft = engine().MakeTTFTModel();
  const TTFTBreakdown b = ttft.Text(9600, 3.0);
  EXPECT_GT(b.compute_s, b.network_s * 10.0);  // text is tiny, prefill heavy
  EXPECT_GT(b.Total(), 1.0);
}

TEST_F(ServingTest, TTFTQuantDominatedByNetwork) {
  TTFTModel ttft = engine().MakeTTFTModel();
  const TTFTBreakdown b = ttft.Quant(8, 9600, 3.0);
  EXPECT_GT(b.network_s, b.dequant_s);
  EXPECT_DOUBLE_EQ(b.compute_s, 0.0);
}

TEST_F(ServingTest, TTFTOrderingMatchesPaperAt3Gbps) {
  // Fig. 8: CacheGen < 8-bit quant < text at 3 Gbps for long contexts.
  TTFTModel ttft = engine().MakeTTFTModel();
  const double cachegen = ttft.CacheGen(9600, 3.0).Total();
  const double quant = ttft.Quant(8, 9600, 3.0).Total();
  const double text = ttft.Text(9600, 3.0).Total();
  EXPECT_LT(cachegen, quant);
  EXPECT_LT(quant, text);
  // Paper: 1.67-1.81x faster than 8-bit quant; 3.1-4.7x vs text.
  EXPECT_GT(quant / cachegen, 1.5);
  EXPECT_GT(text / cachegen, 2.5);
}

TEST_F(ServingTest, TTFTPipeliningHidesDecode) {
  TTFTModel ttft = engine().MakeTTFTModel();
  const TTFTBreakdown piped = ttft.CacheGen(9600, 3.0, 1.0, 1, true);
  const TTFTBreakdown seq = ttft.CacheGen(9600, 3.0, 1.0, 1, false);
  EXPECT_LT(piped.decode_exposed_s, seq.decode_exposed_s);
  EXPECT_LT(piped.Total(), seq.Total());
}

TEST_F(ServingTest, TTFTAutoRevertsToTextForShortContexts) {
  // Fig. 12 right: below ~1K tokens, loading text yields lower TTFT.
  TTFTModel ttft = engine().MakeTTFTModel();
  const TTFTBreakdown short_ctx = ttft.CacheGenAuto(200, 3.0);
  EXPECT_DOUBLE_EQ(short_ctx.decode_exposed_s, 0.0);  // text path chosen
  EXPECT_GT(short_ctx.compute_s, 0.0);
  const TTFTBreakdown long_ctx = ttft.CacheGenAuto(9600, 3.0);
  EXPECT_DOUBLE_EQ(long_ctx.compute_s, 0.0);  // KV path chosen
}

TEST_F(ServingTest, TTFTGpuShareAffectsTextMoreThanCacheGen) {
  // Fig. 12 left: with concurrent requests, prefill-heavy baselines blow up.
  TTFTModel ttft = engine().MakeTTFTModel();
  const double text_1 = ttft.Text(6000, 3.0, 1.0).Total();
  const double text_8 = ttft.Text(6000, 3.0, 1.0 / 8.0).Total();
  const double cg_1 = ttft.CacheGen(6000, 3.0, 1.0).Total();
  const double cg_8 = ttft.CacheGen(6000, 3.0, 1.0 / 8.0).Total();
  EXPECT_GT(text_8 / text_1, cg_8 / cg_1);
}

TEST_F(ServingTest, EngineWithFileStore) {
  const auto dir = std::filesystem::temp_directory_path() / "cachegen_engine_store";
  std::filesystem::remove_all(dir);
  Engine e(MakeOptions(200, 400, 1), std::make_shared<FileKVStore>(dir));
  const ContextSpec ctx{7, 400};
  e.StoreKV("persisted", ctx);
  EXPECT_TRUE(e.store().ContainsContext("persisted"));
  EXPECT_GT(e.store().TotalBytes(), 0u);
  const auto chunk = e.GetKV("persisted", 0, 1);
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->num_tokens, 200u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cachegen
