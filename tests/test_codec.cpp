#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "codec/container.h"
#include "codec/encoding_level.h"
#include "codec/kv_decoder.h"
#include "codec/kv_encoder.h"
#include "codec/layer_groups.h"
#include "codec/layered_encoder.h"
#include "codec/profile.h"
#include "llm/quality_model.h"
#include "llm/synthetic_model.h"

namespace cachegen {
namespace {

class CodecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new ModelConfig(ModelConfig::Preset("mistral-7b"));
    model_ = new SyntheticModel(*cfg_);
    // Profiling needs enough contexts to marginalize per-context offsets
    // (the paper profiles over a dataset subset, §7.1).
    calib_ = new std::vector<KVCache>();
    std::vector<const KVCache*> ptrs;
    for (uint64_t i = 0; i < 12; ++i) {
      calib_->push_back(model_->Prefill({100 + i, 250}));
    }
    for (const auto& c : *calib_) ptrs.push_back(&c);
    profile_ = std::make_shared<KVProfile>(KVProfile::Build(*cfg_, ptrs));
  }
  static void TearDownTestSuite() {
    delete calib_;
    delete model_;
    delete cfg_;
    profile_.reset();
  }

  static ModelConfig* cfg_;
  static SyntheticModel* model_;
  static std::vector<KVCache>* calib_;
  static std::shared_ptr<const KVProfile> profile_;
};

ModelConfig* CodecTest::cfg_ = nullptr;
SyntheticModel* CodecTest::model_ = nullptr;
std::vector<KVCache>* CodecTest::calib_ = nullptr;
std::shared_ptr<const KVProfile> CodecTest::profile_;

TEST(LayerGroups, ThreeEqualThirds) {
  EXPECT_EQ(LayerGroupOf(0, 30), 0u);
  EXPECT_EQ(LayerGroupOf(9, 30), 0u);
  EXPECT_EQ(LayerGroupOf(10, 30), 1u);
  EXPECT_EQ(LayerGroupOf(19, 30), 1u);
  EXPECT_EQ(LayerGroupOf(20, 30), 2u);
  EXPECT_EQ(LayerGroupOf(29, 30), 2u);
  EXPECT_THROW(LayerGroupOf(30, 30), std::out_of_range);
}

TEST(LayerGroups, SizesSumToLayers) {
  for (size_t L : {3u, 7u, 32u, 40u, 80u}) {
    const auto sizes = LayerGroupSizes(L);
    EXPECT_EQ(sizes[0] + sizes[1] + sizes[2], L);
  }
}

TEST(EncodingLevels, LadderMonotone) {
  const auto& levels = DefaultEncodingLevels();
  ASSERT_GE(levels.size(), 2u);
  for (size_t i = 1; i < levels.size(); ++i) {
    for (size_t g = 0; g < kNumLayerGroups; ++g) {
      EXPECT_GT(levels[i].bins[g], levels[i - 1].bins[g]);
    }
  }
}

TEST(EncodingLevels, BinsGrowWithDepth) {
  // §5.2: bin size grows from earlier to later layer groups.
  for (const auto& level : DefaultEncodingLevels()) {
    EXPECT_LT(level.bins[0], level.bins[1]);
    EXPECT_LT(level.bins[1], level.bins[2]);
  }
}

TEST(EncodingLevels, UniformCollapse) {
  const EncodingLevel u = DefaultLevel().WithUniformBins();
  EXPECT_DOUBLE_EQ(u.bins[0], u.bins[1]);
  EXPECT_DOUBLE_EQ(u.bins[1], u.bins[2]);
}

TEST(Delta, AnchorIndexing) {
  EXPECT_EQ(AnchorOf(0), 0u);
  EXPECT_EQ(AnchorOf(9), 0u);
  EXPECT_EQ(AnchorOf(10), 10u);
  EXPECT_TRUE(IsAnchor(0));
  EXPECT_FALSE(IsAnchor(5));
  EXPECT_TRUE(IsAnchor(20));
  EXPECT_EQ(NumTokenGroups(0), 0u);
  EXPECT_EQ(NumTokenGroups(1), 1u);
  EXPECT_EQ(NumTokenGroups(10), 1u);
  EXPECT_EQ(NumTokenGroups(11), 2u);
}

TEST_F(CodecTest, ProfileHasSaneStats) {
  for (size_t l = 0; l < cfg_->num_layers; l += 7) {
    for (size_t c = 0; c < cfg_->sim_channels; c += 5) {
      for (int kind = 0; kind < 2; ++kind) {
        EXPECT_GT(profile_->RawStd(l, c, kind), 0.0);
        EXPECT_GT(profile_->DeltaStd(l, c, kind), 0.0);
        EXPECT_GT(profile_->AnchorScale(l, c, kind), 0.0);
        // Deltas are (on average) tighter than raw values.
      }
    }
  }
}

TEST_F(CodecTest, ProfileSerializeRoundTrip) {
  ByteWriter w;
  profile_->Serialize(w);
  ByteReader r(w.bytes());
  const KVProfile back = KVProfile::Deserialize(r);
  EXPECT_EQ(back.num_layers(), profile_->num_layers());
  EXPECT_EQ(back.num_channels(), profile_->num_channels());
  EXPECT_DOUBLE_EQ(back.DeltaStd(3, 4, 1), profile_->DeltaStd(3, 4, 1));
  EXPECT_DOUBLE_EQ(back.AnchorScale(0, 0, 0), profile_->AnchorScale(0, 0, 0));
  const auto h1 = profile_->DeltaHist(2, 2, 0);
  const auto h2 = back.DeltaHist(2, 2, 0);
  for (size_t i = 0; i < h1.size(); ++i) EXPECT_EQ(h1[i], h2[i]);
}

TEST_F(CodecTest, ProfileBuildRejectsEmpty) {
  EXPECT_THROW(KVProfile::Build(*cfg_, {}), std::invalid_argument);
}

TEST_F(CodecTest, EncodeDecodeRoundTripShape) {
  const KVCache chunk = model_->Prefill({200, 137});
  const KVEncoder enc(profile_, DefaultLevel());
  const KVDecoder dec(profile_, DefaultLevel());
  const EncodedChunk encoded = enc.EncodeChunk(chunk, 3, 1000);
  EXPECT_EQ(encoded.chunk_index, 3u);
  EXPECT_EQ(encoded.token_begin, 1000u);
  EXPECT_EQ(encoded.num_tokens, 137u);
  EXPECT_EQ(encoded.streams.size(), NumTokenGroups(137));
  const KVCache recon = dec.DecodeChunk(encoded);
  EXPECT_EQ(recon.num_tokens(), 137u);
  EXPECT_EQ(recon.num_layers(), cfg_->num_layers);
}

TEST_F(CodecTest, ReconstructionErrorBounded) {
  // At the finest level the reconstruction must be close; the layer-wise
  // weighted nMSE should be far below the quality knee.
  const KVCache chunk = model_->Prefill({201, 200});
  const KVEncoder enc(profile_, DefaultEncodingLevels()[0]);
  const KVDecoder dec(profile_, DefaultEncodingLevels()[0]);
  const KVCache recon = dec.DecodeChunk(enc.EncodeChunk(chunk));
  QualityModel qm;
  EXPECT_LT(qm.WeightedNmse(chunk, recon), 0.05);
}

TEST_F(CodecTest, CoarserLevelsSmallerAndWorse) {
  const KVCache chunk = model_->Prefill({202, 300});
  QualityModel qm;
  double prev_bytes = 1e18;
  double prev_nmse = 0.0;
  for (const auto& level : DefaultEncodingLevels()) {
    const KVEncoder enc(profile_, level);
    const KVDecoder dec(profile_, level);
    const EncodedChunk e = enc.EncodeChunk(chunk);
    const double bytes = static_cast<double>(e.PayloadBytes());
    const double nmse = qm.WeightedNmse(chunk, dec.DecodeChunk(e));
    EXPECT_LT(bytes, prev_bytes) << level.name;
    EXPECT_GT(nmse, prev_nmse) << level.name;
    prev_bytes = bytes;
    prev_nmse = nmse;
  }
}

TEST_F(CodecTest, CompressionBeats8BitByPaperFactor) {
  // Headline claim: 3.5-4.3x smaller than 8-bit quantization at similar
  // quality (§7.2). 8-bit = 8 bits/element.
  const KVCache chunk = model_->Prefill({203, 400});
  const KVEncoder enc(profile_, DefaultLevel());
  const EncodedChunk e = enc.EncodeChunk(chunk);
  const double bits_per_element =
      static_cast<double>(e.PayloadBytes()) * 8.0 /
      static_cast<double>(chunk.TotalElements());
  const double ratio_vs_8bit = 8.0 / bits_per_element;
  EXPECT_GT(ratio_vs_8bit, 3.0);
  EXPECT_LT(ratio_vs_8bit, 5.0);
}

TEST_F(CodecTest, DecoderValidatesMetadata) {
  const KVCache chunk = model_->Prefill({204, 60});
  const KVEncoder enc(profile_, DefaultLevel());
  EncodedChunk e = enc.EncodeChunk(chunk);
  const KVDecoder wrong_level(profile_, DefaultEncodingLevels()[2]);
  EXPECT_THROW(wrong_level.DecodeChunk(e), std::invalid_argument);
  CodecOptions no_delta;
  no_delta.delta_encoding = false;
  const KVDecoder wrong_options(profile_, DefaultLevel(), no_delta);
  EXPECT_THROW(wrong_options.DecodeChunk(e), std::invalid_argument);
  const KVDecoder ok(profile_, DefaultLevel());
  // A header claiming a layer or a channel beyond the profile would index
  // past the decoder's per-layer and per-channel tables.
  EncodedChunk extra_layer = e;
  extra_layer.num_layers = static_cast<uint32_t>(profile_->num_layers() + 1);
  EXPECT_THROW(ok.DecodeChunk(extra_layer), std::invalid_argument);
  EncodedChunk extra_channel = e;
  extra_channel.num_channels = static_cast<uint32_t>(profile_->num_channels() + 1);
  EXPECT_THROW(ok.DecodeChunk(extra_channel), std::invalid_argument);
  // In-place decode also checks its destination: the chunk's layers and
  // channels, and room for its rows after the offset.
  const size_t T = e.num_tokens, L = e.num_layers, C = e.num_channels;
  KVCache room(L, T + 2, C);
  EXPECT_NO_THROW(ok.DecodeChunkInto(e, room, 2));
  EXPECT_THROW(ok.DecodeChunkInto(e, room, 3), std::invalid_argument);
  EXPECT_THROW(ok.DecodeChunkInto(e, room, T + 3), std::invalid_argument);
  KVCache narrow(L, T, C - 1);
  EXPECT_THROW(ok.DecodeChunkInto(e, narrow, 0), std::invalid_argument);
  KVCache shallow(L - 1, T, C);
  EXPECT_THROW(ok.DecodeChunkInto(e, shallow, 0), std::invalid_argument);
  KVCache deep(L + 1, T, C);
  EXPECT_THROW(ok.DecodeChunkInto(extra_layer, deep, 0), std::invalid_argument);
  e.streams.pop_back();
  EXPECT_THROW(ok.DecodeChunk(e), std::invalid_argument);
  EXPECT_THROW(ok.DecodeChunkInto(e, room, 0), std::invalid_argument);
}

TEST_F(CodecTest, SingleThreadMatchesParallel) {
  const KVCache chunk = model_->Prefill({205, 83});
  const KVEncoder enc(profile_, DefaultLevel());
  const EncodedChunk e1 = enc.EncodeChunk(chunk, 0, 0, 1);
  const EncodedChunk e8 = enc.EncodeChunk(chunk, 0, 0, 8);
  ASSERT_EQ(e1.streams.size(), e8.streams.size());
  for (size_t g = 0; g < e1.streams.size(); ++g) {
    EXPECT_EQ(e1.streams[g], e8.streams[g]) << "group " << g;
  }
  const KVDecoder dec(profile_, DefaultLevel());
  EXPECT_DOUBLE_EQ(dec.DecodeChunk(e1, 1).Mse(dec.DecodeChunk(e8, 8)), 0.0);
}

TEST_F(CodecTest, ChunksDecodeIndependentlyAndConcatenate) {
  // §5.3: chunks encoded separately, decoded independently into their own
  // rows of one cache.
  const ContextSpec ctx{206, 90};
  const KVCache full = model_->Prefill(ctx);
  const KVEncoder enc(profile_, DefaultLevel());
  const KVDecoder dec(profile_, DefaultLevel());

  const EncodedChunk whole = enc.EncodeChunk(full);
  KVCache whole_recon = dec.DecodeChunk(whole);

  KVCache stitched(full.num_layers(), 90, full.num_channels());
  for (size_t begin = 0; begin < 90; begin += 30) {
    const EncodedChunk part = enc.EncodeChunk(full.SliceTokens(begin, begin + 30));
    dec.DecodeChunkInto(part, stitched, begin);
  }
  // Chunk boundaries align with token groups (30 % 10 == 0), so the encoded
  // symbols — and hence reconstructions — are identical.
  EXPECT_DOUBLE_EQ(stitched.Mse(whole_recon), 0.0);
}

TEST_F(CodecTest, EstimateTracksActualSize) {
  const KVCache chunk = model_->Prefill({207, 220});
  const KVEncoder enc(profile_, DefaultLevel());
  const double estimated = enc.EstimateChunkBytes(chunk);
  const double actual = static_cast<double>(enc.EncodeChunk(chunk).PayloadBytes());
  EXPECT_NEAR(estimated / actual, 1.0, 0.05);
}

TEST_F(CodecTest, PerChannelLayerTablesBeatGlobal) {
  // §7.5: channel-layer grouping reduces bitstream size vs one global
  // distribution (paper: up to 53%).
  const KVCache chunk = model_->Prefill({208, 300});
  CodecOptions global;
  global.granularity = ProfileGranularity::kGlobal;
  const KVEncoder enc_global(profile_, DefaultLevel(), global);
  const KVEncoder enc_cl(profile_, DefaultLevel());
  const double global_bytes =
      static_cast<double>(enc_global.EncodeChunk(chunk).PayloadBytes());
  const double cl_bytes = static_cast<double>(enc_cl.EncodeChunk(chunk).PayloadBytes());
  EXPECT_LT(cl_bytes, global_bytes * 0.92);
}

TEST_F(CodecTest, GranularityLadder) {
  // Global <= per-layer <= per-channel-layer in compression quality.
  const KVCache chunk = model_->Prefill({209, 200});
  auto bytes_for = [&](ProfileGranularity g) {
    CodecOptions opt;
    opt.granularity = g;
    const KVEncoder enc(profile_, DefaultLevel(), opt);
    return static_cast<double>(enc.EncodeChunk(chunk).PayloadBytes());
  };
  const double b_global = bytes_for(ProfileGranularity::kGlobal);
  const double b_layer = bytes_for(ProfileGranularity::kPerLayer);
  const double b_cl = bytes_for(ProfileGranularity::kPerChannelLayer);
  EXPECT_LE(b_layer, b_global * 1.001);
  EXPECT_LE(b_cl, b_layer * 1.001);
}

TEST_F(CodecTest, NoDeltaModeRoundTrips) {
  const KVCache chunk = model_->Prefill({210, 70});
  CodecOptions opt;
  opt.delta_encoding = false;
  const KVEncoder enc(profile_, DefaultLevel(), opt);
  const KVDecoder dec(profile_, DefaultLevel(), opt);
  const KVCache recon = dec.DecodeChunk(enc.EncodeChunk(chunk));
  QualityModel qm;
  EXPECT_LT(qm.WeightedNmse(chunk, recon), 1.0);
}

TEST_F(CodecTest, DeltaModeBeatsNoDeltaAtEqualBins) {
  // Fig. 15 "+ Change": with the same bins, delta encoding yields smaller
  // streams (deltas are tighter than raw values under shared tables) at
  // comparable-or-better error.
  const KVCache chunk = model_->Prefill({211, 300});
  CodecOptions raw_mode;
  raw_mode.delta_encoding = false;
  const KVEncoder enc_raw(profile_, DefaultLevel(), raw_mode);
  const KVEncoder enc_delta(profile_, DefaultLevel());
  const double raw_bytes =
      static_cast<double>(enc_raw.EncodeChunk(chunk).PayloadBytes());
  const double delta_bytes =
      static_cast<double>(enc_delta.EncodeChunk(chunk).PayloadBytes());
  EXPECT_LT(delta_bytes, raw_bytes);
}

TEST_F(CodecTest, ConsecutiveAnchorModeRoundTrips) {
  const KVCache chunk = model_->Prefill({212, 55});
  CodecOptions opt;
  opt.anchor_mode = AnchorMode::kConsecutive;
  const KVEncoder enc(profile_, DefaultLevel(), opt);
  const KVDecoder dec(profile_, DefaultLevel(), opt);
  const KVCache recon = dec.DecodeChunk(enc.EncodeChunk(chunk));
  QualityModel qm;
  EXPECT_LT(qm.WeightedNmse(chunk, recon), 0.2);
}

TEST_F(CodecTest, ContainerRoundTrip) {
  const KVCache chunk = model_->Prefill({213, 47});
  const KVEncoder enc(profile_, DefaultLevel());
  const EncodedChunk e = enc.EncodeChunk(chunk, 9, 4500);
  const std::vector<uint8_t> bytes = SerializeChunk(e);
  const EncodedChunk back = ParseChunk(bytes);
  EXPECT_EQ(back.chunk_index, e.chunk_index);
  EXPECT_EQ(back.token_begin, e.token_begin);
  EXPECT_EQ(back.num_tokens, e.num_tokens);
  EXPECT_EQ(back.level_id, e.level_id);
  EXPECT_EQ(back.option_flags, e.option_flags);
  EXPECT_EQ(back.streams, e.streams);
  const KVDecoder dec(profile_, DefaultLevel());
  EXPECT_DOUBLE_EQ(dec.DecodeChunk(back).Mse(dec.DecodeChunk(e)), 0.0);
}

TEST_F(CodecTest, ContainerRejectsCorruption) {
  const KVCache chunk = model_->Prefill({214, 20});
  const KVEncoder enc(profile_, DefaultLevel());
  std::vector<uint8_t> bytes = SerializeChunk(enc.EncodeChunk(chunk));
  bytes[0] ^= 0xFF;  // break the magic
  EXPECT_THROW(ParseChunk(bytes), std::runtime_error);
  EXPECT_THROW(ParseChunk(std::span<const uint8_t>{}), std::out_of_range);
}

TEST(Container, RejectsStreamCountBeyondBytes) {
  // A 19-byte container claiming 2^40 streams: every stream blob costs at
  // least its one-byte length, so the count is corrupt and must be rejected
  // before it sizes an allocation.
  const std::vector<uint8_t> bytes = {
      'C', 'G', 'K', 'V', kContainerVersion,
      0, 0, 0, 0, 0,  // chunk index, token begin, tokens, layers, channels
      0, 0, 10,       // level id, option flags, group size
      0x80, 0x80, 0x80, 0x80, 0x80, 0x20};  // varint 2^40
  ASSERT_EQ(bytes.size(), 19u);
  EXPECT_THROW(ParseChunk(bytes), std::runtime_error);
}

TEST_F(CodecTest, OptionFlagsRoundTrip) {
  CodecOptions opt;
  opt.delta_encoding = false;
  opt.layerwise_bins = false;
  opt.granularity = ProfileGranularity::kPerLayer;
  opt.anchor_mode = AnchorMode::kConsecutive;
  const CodecOptions back = CodecOptions::FromFlags(opt.Flags());
  EXPECT_EQ(back.delta_encoding, opt.delta_encoding);
  EXPECT_EQ(back.layerwise_bins, opt.layerwise_bins);
  EXPECT_EQ(back.granularity, opt.granularity);
  EXPECT_EQ(back.anchor_mode, opt.anchor_mode);
}

TEST_F(CodecTest, LayeredEncoderBaseAndFull) {
  const KVCache chunk = model_->Prefill({215, 120});
  const LayeredEncoder layered(profile_, DefaultEncodingLevels()[2], 0.25);
  const LayeredChunk lc = layered.Encode(chunk);
  EXPECT_GT(lc.enhancement.size(), 0u);
  QualityModel qm;
  const double base_nmse = qm.WeightedNmse(chunk, layered.DecodeBase(lc));
  const double full_nmse = qm.WeightedNmse(chunk, layered.DecodeFull(lc));
  EXPECT_LT(full_nmse, base_nmse * 0.5);  // enhancement refines substantially
}

TEST_F(CodecTest, LayeredTotalCostModest) {
  // SVC-style layering should cost less than ~2x a direct fine encoding.
  const KVCache chunk = model_->Prefill({216, 100});
  const LayeredEncoder layered(profile_, DefaultEncodingLevels()[2], 0.25);
  const KVEncoder direct_fine(profile_, DefaultEncodingLevels()[0]);
  const LayeredChunk lc = layered.Encode(chunk);
  const double direct = static_cast<double>(direct_fine.EncodeChunk(chunk).PayloadBytes());
  EXPECT_LT(static_cast<double>(lc.TotalBytes()), 2.0 * direct);
}

TEST_F(CodecTest, LayeredContainerRoundTrip) {
  const KVCache chunk = model_->Prefill({217, 90});
  const LayeredEncoder layered(profile_, DefaultEncodingLevels()[2], 0.25);
  const LayeredChunk lc = layered.Encode(chunk, 3, 4500);
  const std::vector<uint8_t> bytes = SerializeLayeredChunk(lc);
  const LayeredChunk back = ParseLayeredChunk(bytes);
  EXPECT_EQ(back.fine_bin_sigma, lc.fine_bin_sigma);
  EXPECT_EQ(back.enhancement, lc.enhancement);
  EXPECT_EQ(back.base.chunk_index, 3u);
  EXPECT_EQ(back.base.token_begin, 4500u);
  EXPECT_EQ(back.base.streams, lc.base.streams);
  // Bit-identical reconstructions through the round trip.
  EXPECT_DOUBLE_EQ(layered.DecodeFull(back).Mse(layered.DecodeFull(lc)), 0.0);
}

TEST_F(CodecTest, LayeredContainerRejectsCorruption) {
  const KVCache chunk = model_->Prefill({218, 60});
  const LayeredEncoder layered(profile_, DefaultEncodingLevels()[2], 0.25);
  std::vector<uint8_t> bytes = SerializeLayeredChunk(layered.Encode(chunk));
  {
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;  // break the magic
    EXPECT_THROW(ParseLayeredChunk(bad), std::runtime_error);
  }
  // Truncation anywhere in the container is detected by the blob framing.
  const std::vector<uint8_t> truncated(bytes.begin(),
                                       bytes.end() - static_cast<ptrdiff_t>(8));
  EXPECT_THROW(ParseLayeredChunk(truncated), std::out_of_range);
  EXPECT_THROW(ParseLayeredChunk(std::span<const uint8_t>{}), std::out_of_range);
}

TEST_F(CodecTest, TruncatedEnhancementKeepsBaseDecodable) {
  // The §9 mid-stream abort story: an enhancement cut off partway must never
  // poison the chunk — the base stays decodable, and applying the truncated
  // enhancement fails loudly instead of producing silent garbage.
  const KVCache chunk = model_->Prefill({219, 80});
  const LayeredEncoder layered(profile_, DefaultEncodingLevels()[2], 0.25);
  LayeredChunk lc = layered.Encode(chunk);
  ASSERT_GT(lc.enhancement.size(), 16u);
  lc.enhancement.resize(lc.enhancement.size() / 2);
  EXPECT_NO_THROW(layered.DecodeBase(lc));
  EXPECT_THROW(layered.DecodeFull(lc), std::out_of_range);
}

TEST_F(CodecTest, EnhancementSizeEstimateTracksActual) {
  const KVCache chunk = model_->Prefill({220, 150});
  const LayeredEncoder layered(profile_, DefaultEncodingLevels()[2], 0.25);
  const double actual = static_cast<double>(layered.Encode(chunk).enhancement.size());
  const double estimate = layered.EstimateEnhancementBytes(chunk);
  EXPECT_GT(estimate, 0.6 * actual);
  EXPECT_LT(estimate, 1.4 * actual);
}

}  // namespace
}  // namespace cachegen
