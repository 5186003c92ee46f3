// Extended codec coverage: cross-model sweeps, serialization fuzzing,
// corruption / failure injection, layered-encoder parameter sweeps, and
// size-estimate accuracy across the whole level ladder.
#include <gtest/gtest.h>

#include <memory>

#include "codec/container.h"
#include "codec/kv_decoder.h"
#include "codec/kv_encoder.h"
#include "codec/layered_encoder.h"
#include "common/rng.h"
#include "llm/quality_model.h"
#include "llm/synthetic_model.h"

namespace cachegen {
namespace {

struct ModelCodecCase {
  const char* model;
  size_t tokens;
};

std::shared_ptr<const KVProfile> ProfileFor(const ModelConfig& cfg,
                                            const SyntheticModel& model) {
  std::vector<KVCache> calib;
  std::vector<const KVCache*> ptrs;
  for (uint64_t i = 0; i < 8; ++i) calib.push_back(model.Prefill({3000 + i, 200}));
  for (const auto& c : calib) ptrs.push_back(&c);
  return std::make_shared<KVProfile>(KVProfile::Build(cfg, ptrs));
}

class ModelCodecProperty : public ::testing::TestWithParam<ModelCodecCase> {};

TEST_P(ModelCodecProperty, CompressionAndQualityAcrossModels) {
  // The headline behaviour is not Mistral-specific: on every preset, the
  // default level compresses >= 3x below 8 bits/element at >= 0.95 quality.
  const auto& p = GetParam();
  const ModelConfig cfg = ModelConfig::Preset(p.model);
  const SyntheticModel model(cfg, /*model_seed=*/0xABC0 + cfg.num_layers);
  const auto profile = ProfileFor(cfg, model);
  const KVEncoder enc(profile, DefaultLevel());
  const KVDecoder dec(profile, DefaultLevel());

  const KVCache chunk = model.Prefill({9999, p.tokens});
  const EncodedChunk e = enc.EncodeChunk(chunk);
  const double bits = static_cast<double>(e.PayloadBytes()) * 8.0 /
                      static_cast<double>(chunk.TotalElements());
  EXPECT_GT(8.0 / bits, 3.0) << p.model;
  EXPECT_LT(8.0 / bits, 6.0) << p.model;

  const QualityModel qm;
  EXPECT_GT(qm.QualityFromKV(chunk, dec.DecodeChunk(e)), 0.95) << p.model;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelCodecProperty,
    ::testing::Values(ModelCodecCase{"mistral-7b", 200},
                      ModelCodecCase{"llama-3b", 150},
                      ModelCodecCase{"llama-7b", 200},
                      ModelCodecCase{"llama-13b", 150},
                      ModelCodecCase{"llama-34b", 120},
                      ModelCodecCase{"llama-70b", 100}));

class ExtendedCodecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new ModelConfig(ModelConfig::Preset("mistral-7b"));
    model_ = new SyntheticModel(*cfg_);
    profile_holder_ = new std::shared_ptr<const KVProfile>(ProfileFor(*cfg_, *model_));
  }
  static void TearDownTestSuite() {
    delete profile_holder_;
    delete model_;
    delete cfg_;
  }
  static std::shared_ptr<const KVProfile> profile() { return *profile_holder_; }

  static ModelConfig* cfg_;
  static SyntheticModel* model_;
  static std::shared_ptr<const KVProfile>* profile_holder_;
};

ModelConfig* ExtendedCodecTest::cfg_ = nullptr;
SyntheticModel* ExtendedCodecTest::model_ = nullptr;
std::shared_ptr<const KVProfile>* ExtendedCodecTest::profile_holder_ = nullptr;

TEST_F(ExtendedCodecTest, TruncatedStreamDoesNotCrash) {
  // Failure injection: a truncated group bitstream must decode without UB or
  // exceptions (the range decoder reads zeros past the end) — the damage is
  // contained to that token group.
  const KVCache chunk = model_->Prefill({778, 40});
  const KVEncoder enc(profile(), DefaultLevel());
  const KVDecoder dec(profile(), DefaultLevel());
  EncodedChunk e = enc.EncodeChunk(chunk);
  e.streams[1].resize(e.streams[1].size() / 2);
  const KVCache recon = dec.DecodeChunk(e);
  EXPECT_EQ(recon.num_tokens(), 40u);
  // Other groups still reconstruct faithfully.
  const KVCache ref = dec.DecodeChunk(enc.EncodeChunk(chunk));
  EXPECT_DOUBLE_EQ(recon.SliceTokens(0, 10).Mse(ref.SliceTokens(0, 10)), 0.0);
  EXPECT_DOUBLE_EQ(recon.SliceTokens(20, 40).Mse(ref.SliceTokens(20, 40)), 0.0);
}

TEST_F(ExtendedCodecTest, BitflippedStreamContainedToGroup) {
  const KVCache chunk = model_->Prefill({779, 50});
  const KVEncoder enc(profile(), DefaultLevel());
  const KVDecoder dec(profile(), DefaultLevel());
  EncodedChunk e = enc.EncodeChunk(chunk);
  const KVCache ref = dec.DecodeChunk(e);
  e.streams[2][10] ^= 0x40;  // corrupt group 2 (tokens 20-29)
  const KVCache recon = dec.DecodeChunk(e);
  EXPECT_DOUBLE_EQ(recon.SliceTokens(0, 20).Mse(ref.SliceTokens(0, 20)), 0.0);
  EXPECT_DOUBLE_EQ(recon.SliceTokens(30, 50).Mse(ref.SliceTokens(30, 50)), 0.0);
}

TEST_F(ExtendedCodecTest, ContainerFuzzNoUncontrolledFailure) {
  // Random mutations of a serialized chunk either parse (and decode to the
  // right shape) or throw a std exception — never crash.
  const KVCache chunk = model_->Prefill({780, 30});
  const KVEncoder enc(profile(), DefaultLevel());
  const KVDecoder dec(profile(), DefaultLevel());
  const std::vector<uint8_t> bytes = SerializeChunk(enc.EncodeChunk(chunk));
  Rng rng(4242);
  size_t decoded = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const size_t flips = 1 + rng.NextBelow(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    try {
      const EncodedChunk parsed = ParseChunk(mutated);
      const KVCache recon = dec.DecodeChunk(parsed);
      ASSERT_EQ(recon.num_layers(), parsed.num_layers) << "trial " << trial;
      for (size_t l = 0; l < recon.num_layers(); ++l) {
        ASSERT_EQ(recon.layer(l).v.rows(), parsed.num_tokens) << "trial " << trial;
        ASSERT_EQ(recon.layer(l).v.cols(), parsed.num_channels) << "trial " << trial;
      }
      ++decoded;
    } catch (const std::exception&) {
      // acceptable: corruption detected
    }
  }
  // Most flips land in stream payload, which parses and decodes to garbage.
  EXPECT_GT(decoded, 0u);
}

TEST_F(ExtendedCodecTest, EncodeIsDeterministic) {
  const KVCache chunk = model_->Prefill({782, 70});
  const KVEncoder enc(profile(), DefaultLevel());
  const EncodedChunk a = enc.EncodeChunk(chunk);
  const EncodedChunk b = enc.EncodeChunk(chunk);
  EXPECT_EQ(a.streams, b.streams);
}

TEST_F(ExtendedCodecTest, TinyChunks) {
  // 1-token and sub-group chunks must round-trip.
  const KVDecoder dec(profile(), DefaultLevel());
  const KVEncoder enc(profile(), DefaultLevel());
  for (size_t tokens : {1u, 2u, 9u, 10u, 11u}) {
    const KVCache chunk = model_->Prefill({783, tokens});
    const KVCache recon = dec.DecodeChunk(enc.EncodeChunk(chunk));
    EXPECT_EQ(recon.num_tokens(), tokens);
    QualityModel qm;
    EXPECT_LT(qm.WeightedNmse(chunk, recon), 0.5) << tokens;
  }
}

struct LayeredCase {
  int base_level;
  double fine_bin;
};

class LayeredProperty : public ::testing::TestWithParam<LayeredCase> {};

TEST_P(LayeredProperty, RefinementAlwaysImproves) {
  const auto& p = GetParam();
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  std::vector<KVCache> calib;
  std::vector<const KVCache*> ptrs;
  for (uint64_t i = 0; i < 6; ++i) calib.push_back(model.Prefill({4000 + i, 150}));
  for (const auto& c : calib) ptrs.push_back(&c);
  const auto profile = std::make_shared<KVProfile>(KVProfile::Build(cfg, ptrs));

  const LayeredEncoder layered(
      profile, DefaultEncodingLevels()[static_cast<size_t>(p.base_level)],
      p.fine_bin);
  const KVCache chunk = model.Prefill({5000, 80});
  const LayeredChunk lc = layered.Encode(chunk);
  const QualityModel qm;
  const double base = qm.WeightedNmse(chunk, layered.DecodeBase(lc));
  const double full = qm.WeightedNmse(chunk, layered.DecodeFull(lc));
  EXPECT_LT(full, base) << "base=" << p.base_level << " bin=" << p.fine_bin;
  EXPECT_GT(lc.enhancement.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BaseLevelsAndBins, LayeredProperty,
                         ::testing::Values(LayeredCase{1, 0.1}, LayeredCase{1, 0.25},
                                           LayeredCase{2, 0.1}, LayeredCase{2, 0.25},
                                           LayeredCase{3, 0.2}, LayeredCase{3, 0.4}));

}  // namespace
}  // namespace cachegen
